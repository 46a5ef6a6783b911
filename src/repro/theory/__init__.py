"""Closed-form queueing theory the simulator is checked against.

:mod:`~repro.theory.queueing` holds the M/M/1, M/M/c (Erlang C) and
M/G/1 (Pollaczek–Khinchine) waits and partition stability checks;
:mod:`~repro.theory.darc_model` predicts each group of a static DARC
reservation as its own M/G/c queue.
"""
