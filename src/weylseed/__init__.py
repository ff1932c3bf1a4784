"""Exact-arithmetic engine for cluster seeds over symmetric Kac-Moody
Weyl group words: root and weight combinatorics, Laurent seed mutation,
Hom-dimension tables, chain-reversal mutation passes, shuffle-algebra
generating functions, and type-A minor cross-validation.
"""
