"""A guest whose cache key a fresh process computes alike whatever else
the test session registered: this file names no other guest class, and
nothing subclasses this one (the guest digest follows both)."""

from repro import f64, i64, wootin


@wootin
class CompilerProbe:
    a: f64

    def __init__(self, a: f64):
        self.a = a

    def run(self, n: i64) -> f64:
        return self.a * float(n)
