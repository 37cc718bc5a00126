"""Exact balance analysis of substitution-generated languages.

The library measures and certifies how evenly factors distribute in
languages generated by towers of substitutions: sliding-window block
codings and their induced substitutions, exact imbalance measurements with
equal-length witness pairs, rational letter frequencies with exact lifting,
a balancedness classifier for the builtin binary family {L, M, R}, and a
self-verification suite behind the `wordbalance` command-line tool.

The top level holds the quickstart entry points; everything else is
imported from its module, for example `wordbalance.balance`.
"""

from .language import sample_level_language
from .tms import parse_directive

__all__ = ["parse_directive", "sample_level_language"]
