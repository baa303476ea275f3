"""Toolkit for the integer sequences 2^(2n) +/- 2^n +/- 1 and generalized
repunits: exact and modular evaluation, congruence and gcd identities,
primality classification, and resumable search scans.

The functionality lives in submodules: lfamily (sequence evaluation and
congruence laws), arith (primality, orders, factoring), gcdlaws (gcd
identities and insularity checking), repunit (generalized repunits), search
(resumable scans), paper (the paper's anchors that verify-paper checks), and
cli (command-line front end).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
