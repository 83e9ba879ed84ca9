"""MNL estimation: the likelihood passes are in ``kernel``, the optimizer in ``bfgs``,
and the result it persists, which imports no numpy, in ``result``."""
