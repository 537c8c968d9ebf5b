"""Numerical verification and falsification of plurisubharmonicity.

Four interchangeable characterizations drive the toolkit: the cylinder
sub-mean-value inequality, a Bochner-type energy identity for weighted
(0,1)-forms, sharp/coarse weighted estimate witnesses, and weighted
extension inequalities for holomorphic functions.
"""

__version__ = "0.1.0"
