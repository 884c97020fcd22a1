from galdescent.fields import GF
from galdescent.multipoly import MultiPolynomial


class TestPower:
    def test_power_takes_one_product_per_bit_below_the_top(self, monkeypatch):
        # square and multiply from the top bit: bit_length - 1 squarings and
        # one product per further set bit, so p ** 1 takes none
        names = ("x", "y")
        x, y = MultiPolynomial.ring_vars(GF(7), names)
        p = x + y + 1
        expected = [MultiPolynomial.constant(GF(7), names, 1)]
        for _ in range(12):
            expected.append(expected[-1] * p)
        count, multiply = [0], MultiPolynomial.__mul__

        def counted(a, b):
            count[0] += 1
            return multiply(a, b)

        monkeypatch.setattr(MultiPolynomial, "__mul__", counted)
        for k, power in enumerate(expected):
            count[0] = 0
            assert p ** k == power
            assert count[0] == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
        for k, products in ((2, 1), (8, 3)):
            count[0] = 0
            p ** k
            assert count[0] == products


class TestEvaluate:
    def test_field_point_and_polynomial_point(self):
        # at field elements the value is a field element; at polynomials it
        # is the substitution, computed without ``transform``
        F = GF(7)
        x, y = MultiPolynomial.ring_vars(F, ("x", "y"))
        p = 3 * x ** 2 * y - y ** 3 + 5
        assert p.evaluate((F.from_int(2), F.from_int(3))) == F.from_int(3 * 4 * 3 - 27 + 5)
        u, v = MultiPolynomial.ring_vars(F, ("u", "v"))
        images = {"x": u + 2 * v, "y": u * v - 1}
        assert p.evaluate((images["x"], images["y"])) == p.substitute(images)
        assert MultiPolynomial.zero(F, ("x", "y")).evaluate((u, v)) == F.zero
