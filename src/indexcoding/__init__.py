"""Exact optimal zero-error index codelengths for unicast side-information graphs."""
