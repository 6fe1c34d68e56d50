"""The paper's primary contribution: MCOS generation (NAIVE / MFS / SSG)
and CNF query evaluation (CNFEvalE) over video object streams.

Layer map (paper section -> module):

- Section 2 problem model, states, windows  -> :mod:`repro.core.model`
- Section 4.2 Marked Frame Set (MFS), and
  the update step all methods share         -> :mod:`repro.core.mfs`
- Section 4.3 Strict State Graph (SSG/ST)   -> :mod:`repro.core.ssg`
- Section 6.2 NAIVE baseline                -> :mod:`repro.core.naive`
- Section 5.2 CNFEvalE                      -> :mod:`repro.core.cnf`
- Section 5.2/5.3 coupling + pruning        -> :mod:`repro.core.evaluate`
- from-definition oracle (the tests' and
  perfbench's correctness check)            -> :mod:`repro.core.brute`

NAIVE, MFS and SSG run one update step (create / append / propagate
marks / admit over the generator map) and differ along two axes:
enumeration (scan every state, or ST traversal for SSG) and validity
(drop a state when its newest mark expires, or, for NAIVE, keep the
marks unread and filter at result time).
"""
