"""Compressive-sensing zeroth-order online optimizers and their testbeds."""
