"""Guest class exercising numeric operator semantics."""

from repro import f32, f64, i64, wootin


@wootin
class Numerics:
    def __init__(self):
        pass

    def floordiv(self, a: i64, b: i64) -> i64:
        return a // b

    def mod(self, a: i64, b: i64) -> i64:
        return a % b

    def fmod(self, a: f64, b: f64) -> f64:
        return a % b

    def truediv(self, a: i64, b: i64) -> f64:
        return a / b

    def narrow_f32(self, x: f64) -> f64:
        y = f32(x)
        return float(y) * 2.0

    def promote(self, a: i64, b: f64) -> f64:
        return a * b + a / 2 - b ** 2


@wootin
class FoldedConstants:
    """Snapshot scalars whose folded spelling an emitter can get wrong: a
    negative base under ``**`` and products that leave the finite range."""

    def __init__(self, base: float, big: float):
        self.base = base
        self.big = big

    def neg_pow_sum(self, n: i64) -> f64:
        acc = 0.0
        for k in range(n):
            acc = acc + self.base ** k
        return acc

    def overflow(self, n: i64) -> f64:
        acc = 0.0
        for k in range(n):
            acc = acc + self.big * 10.0
        return acc

    def not_a_number(self, n: i64) -> f64:
        acc = 0.0
        for k in range(n):
            acc = acc + (self.big * 10.0 - self.big * 10.0)
        return acc
