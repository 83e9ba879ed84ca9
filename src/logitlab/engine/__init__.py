"""MNL estimation: the likelihood passes are in ``kernel``, the optimizer in ``bfgs``."""
