"""Exception types shared across the toolkit."""

from __future__ import annotations


class RadialGeoError(Exception):
    """Base class for all toolkit-specific errors."""


class ProfileError(RadialGeoError):
    """A curvature profile is structurally invalid (gaps, vanishing
    denominators, bad tail parameters, malformed JSON)."""


class IntegrationError(RadialGeoError):
    """The initial value solver failed; carries the last time reached."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} (reached t = {t_reached:.6g})")
        self.t_reached = t_reached


class ConfigurationError(RadialGeoError):
    """Inputs are individually valid but mutually inconsistent, e.g. a
    solution window that ends before the tail regime starts."""


class ModelCompactnessError(RadialGeoError):
    """The warping function vanished at a positive time, so the comparison
    space is compact and the noncompactness hypothesis fails."""

    def __init__(self, first_zero: float):
        super().__init__(
            f"warping function vanishes at t = {first_zero:.12g}; the "
            "comparison space is compact, so the noncompact-model hypothesis "
            "fails"
        )
        self.first_zero = first_zero


class IngestError(RadialGeoError):
    """A volume-sample file could not be parsed or validated."""


class GalleryLookupError(RadialGeoError, KeyError):
    """Unknown gallery entry name."""
