"""Mining of repository event archives and latent-variable modelling of
open source project health.

The package is organised as a pipeline:

* :mod:`oss_health.events` / :mod:`oss_health.store` -- parse compressed
  JSON-Lines event archives and persist normalised events.
* :mod:`oss_health.projects` -- resolve listed projects to canonical
  repositories.
* :mod:`oss_health.metrics` -- compute per-project indicator metrics.
* :mod:`oss_health.dataset` -- clean, impute, reverse-score and split the
  project-by-metric matrix.
* :mod:`oss_health.factor` -- exploratory factor analysis, parallel
  analysis, rotation, reliability and fit indices.
* :mod:`oss_health.sem` -- confirmatory factor / structural equation
  models over a small model-description language.
* :mod:`oss_health.inputs` -- the rules every input-file reader shares.
* :mod:`oss_health.cli` -- command line orchestration.
"""

__version__ = "0.1.0"
