"""AladdinConfig validation and naming."""

import pytest

from repro.core.config import AladdinConfig


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(priority_weight_base=0.5),
            dict(window_apps=0),
            dict(migration_candidates=-1),
            dict(max_migrations_per_container=-1),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            AladdinConfig(**kw)

    def test_frozen(self):
        cfg = AladdinConfig()
        with pytest.raises(AttributeError):
            cfg.window_apps = 5


class TestVariantName:
    def test_full_name(self):
        assert AladdinConfig().variant_name() == "Aladdin(16)+IL+DL"

    def test_without_prunings(self):
        cfg = AladdinConfig(enable_il=False, enable_dl=False)
        assert cfg.variant_name() == "Aladdin(16)"

    def test_il_only(self):
        cfg = AladdinConfig(enable_dl=False)
        assert cfg.variant_name() == "Aladdin(16)+IL"

    def test_base_in_name(self):
        assert "128" in AladdinConfig(priority_weight_base=128).variant_name()
