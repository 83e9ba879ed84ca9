"""logitlab: specify, estimate, validate and compare multinomial logit models.

The package is organised around the lifecycle of a utility specification:

- :mod:`logitlab.dataset` loads choice data plus its data dictionary,
- :mod:`logitlab.specdsl` parses and analyses utility specifications,
- :mod:`logitlab.engine` estimates them by maximum likelihood,
- :mod:`logitlab.metrics` / :mod:`logitlab.validate` score and screen results,
- :mod:`logitlab.llmgate` asks LLMs for candidate specifications,
- :mod:`logitlab.runner` / :mod:`logitlab.report` orchestrate experiments
  and render comparison tables.
"""

__version__ = "0.1.0"


class LogitlabError(Exception):
    """Base of every exception logitlab defines: bad input, a spec that does
    not bind, a failed fit or provider call.  The CLI reports one in a line."""
