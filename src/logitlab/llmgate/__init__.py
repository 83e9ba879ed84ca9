"""Prompt construction, LLM provider calls, and transcript extraction.

Five experiment configurations cross information setting, prompting
strategy and modelling goal.  Each run composes the configuration's
template (stored verbatim as a package asset), attaches the data
description and, for full-information settings, the raw CSV, then replays
the recorded fixture when given a fixture directory and otherwise makes
one live chat-completions call with fixed sampling.  A live response is
kept before parsing, so a failed extraction stays auditable, and in the
fixture layout, so the directory it is kept in replays it.
"""
