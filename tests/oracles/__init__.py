"""Reference implementations kept as differential oracles.

Each module holds the straightforward version of a hot loop that
``src/`` replaced with a faster one: the if-chain instruction stepper,
the character-at-a-time lexer, the level-recursive binary-expression
parser and the per-instruction liveness fixpoint.  They are used only
by ``tests/test_oracles.py``, which checks that the shipped code gives
identical answers on the Figure 9 cases and on generated programs.
"""
