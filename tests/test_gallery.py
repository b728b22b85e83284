import math

import pytest

import radialgeo as rg
from radialgeo.errors import GalleryLookupError
from radialgeo.gallery import abresch_f, beta_profile, entry_by_name, list_gallery

LN2 = math.log(2.0)


class TestListing:
    def test_required_entries_present(self):
        names = {e.name for e in list_gallery()}
        assert {"flat", "hyperbolic", "spherical", "abresch_tail",
                "sign_changing_beta_ln2", "sign_changing_beta_neg_ln2",
                "moment_boundary"} <= names

    def test_lookup_roundtrip(self):
        assert entry_by_name("flat").name == "flat"
        assert entry_by_name("abresch_tail").profile.tail == rg.PowerDecayTail(-6.0, 4.0)

    def test_unknown_name(self):
        with pytest.raises(GalleryLookupError):
            entry_by_name("nope")
        with pytest.raises(KeyError) as info:
            entry_by_name("nope")
        # the message itself, not KeyError's quoted repr of it
        assert str(info.value).startswith("unknown gallery entry 'nope'; known: flat")

    def test_oracle_summaries_render(self):
        for entry in list_gallery():
            assert isinstance(entry.oracle_summary(), str)


class TestOracles:
    def test_flat(self):
        oracle = entry_by_name("flat").oracle
        assert oracle["c"] == 0.0
        assert oracle["slope_limit"] == 1.0
        assert oracle["m_prime_inf"] == 1.0

    def test_hyperbolic_divergent_markers(self):
        oracle = entry_by_name("hyperbolic").oracle
        assert oracle["c"] == "divergent"
        assert oracle["m_prime_inf"] == "divergent"

    def test_beta_ln2_total_curvature(self):
        assert entry_by_name("sign_changing_beta_ln2").oracle["c"] == math.pi

    def test_beta_neg_ln2_total_curvature(self):
        assert entry_by_name("sign_changing_beta_neg_ln2").oracle["c"] == -2 * math.pi


class TestBetaFamily:
    def test_curvature_at_origin(self):
        prof = entry_by_name("sign_changing_beta_ln2").profile
        assert prof.evaluate(0.0) == pytest.approx(6 * LN2, rel=1e-14)

    def test_sign_change(self):
        prof = entry_by_name("sign_changing_beta_ln2").profile
        assert prof.evaluate(0.0) > 0.0
        assert prof.evaluate(10.0) < 0.0

    def test_continuous_at_tail_junction(self):
        for name in ("sign_changing_beta_ln2", "sign_changing_beta_neg_ln2"):
            assert entry_by_name(name).profile.is_continuous(), name

    @pytest.mark.parametrize("beta", [LN2, -LN2])
    def test_matches_finite_difference_of_closed_form(self, beta):
        # independent oracle: K = -f''/f for f = t exp(-beta t^2/(1+t^2)),
        # with f'' from central differences
        prof = beta_profile(beta)

        def f(t):
            return t * math.exp(-beta * t * t / (1.0 + t * t))

        # h balances truncation against cancellation in the second difference
        h = 1e-3
        for t in (0.5, 1.0, 2.0, 5.0, 20.0):
            fpp = (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)
            assert prof.evaluate(t) == pytest.approx(-fpp / f(t), rel=1e-4)


class TestAbreschFamily:
    def test_closed_form_satisfies_ode(self):
        # second difference of a ~100-scale function resolving a ~1e-4
        # second derivative: h balances truncation against cancellation
        h = 3e-3
        for t in (0.5, 2.0, 10.0, 50.0):
            fpp = (abresch_f(t + h) - 2.0 * abresch_f(t) + abresch_f(t - h)) / (h * h)
            k = -6.0 / (1.0 + t) ** 4
            assert fpp == pytest.approx(-k * abresch_f(t), rel=1e-3)

    def test_oracle_slope(self):
        oracle = entry_by_name("abresch_tail").oracle
        assert oracle["slope_limit"] == pytest.approx(
            math.sinh(math.sqrt(6.0)) / math.sqrt(6.0), rel=1e-15)


class TestSpherical:
    def test_analysis_reports_compact_model(self):
        with pytest.raises(rg.ModelCompactnessError):
            rg.evaluate_theorem(entry_by_name("spherical").profile, 2,
                                rg.AnalysisOptions(t_end=10.0))
