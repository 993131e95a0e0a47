"""Benchmark of the tngeom command-line pipelines; see README.md."""
