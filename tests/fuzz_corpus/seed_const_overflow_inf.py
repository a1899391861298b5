from repro import Array, f64, i64, wj, wootin


@wootin
class FuzzGuest:
    big: f64
    n: i64

    def __init__(self, big: f64, n: i64):
        self.big = big
        self.n = n

    def run(self, iters: i64) -> f64:
        # ``self.big * 10.0`` and ``1e308 * 10.0`` fold to +inf on the host;
        # the emitters must be able to spell a non-finite constant (the py
        # emitter once wrote a bare ``inf`` and died with NameError).  The
        # infinities only bound min/max, so every result stays finite.
        arr = wj.zeros(f64, self.n)
        for i in range(self.n):
            arr[i] = float(i) * 0.5 - 1.0
        total = 0.0
        for it in range(iters):
            for i in range(self.n):
                total = total + min(arr[i], self.big * 10.0)
                total = total + max(arr[i] * 0.25, -(1e308 * 10.0))
        wj.output("arr", arr)
        return total
