"""Layered benchmark for implbase; see README.md in this directory."""
