"""Exception types raised across the package.

Two families matter to the CLI: ``InputError`` subclasses indicate a bad
invocation or unusable input file (exit code 2), everything else derived
from ``Scene4DError`` is a computation-time failure (exit code 1). The
``.ct4`` format errors (``BadMagic``, ``UnsupportedVersion``,
``TruncatedPayload``) stay in the second family.
"""


class Scene4DError(Exception):
    """Base class for all package errors."""


class InputError(Scene4DError):
    """Invalid invocation or input that fails validation before compute."""


class BadArgument(InputError, ValueError):
    """An argument out of its range or disagreeing with another one: a
    ValueError to library callers, exit 2 at the CLI."""


# --- geometry ---

class ZeroQuaternion(Scene4DError):
    """Quaternion part of a camera vector has (near-)zero norm."""


class FovOutOfRange(Scene4DError):
    """Field of view outside the open interval (0, pi)."""


# --- synthetic scenes ---

class EmptyScene(Scene4DError):
    """No pixel of any frame is covered by scene geometry."""


class QueryInvalid(Scene4DError):
    """Query pixel is invalid in the source frame."""


# --- losses ---

class ShapeMismatch(Scene4DError):
    """Array arguments disagree on shape."""


class NonPositiveSigma(Scene4DError):
    """Uncertainty map contains non-positive entries on valid pixels."""


class NonFiniteDerivative(Scene4DError):
    """A finite-difference or analytic derivative is NaN or infinite."""


# --- evaluation metrics ---

class EmptyReference(Scene4DError):
    """Nearest-neighbor reference cloud is empty."""


class EmptyCloud(Scene4DError):
    """Point cloud argument is empty."""


class TooFewPoints(Scene4DError):
    """Cloud smaller than the neighborhood size k."""


class DegenerateScale(Scene4DError):
    """Median norm too small to derive a scale factor."""


class DegenerateConfiguration(Scene4DError):
    """Point configuration is rank-deficient for similarity fitting."""


class NoSamples(Scene4DError):
    """No (point, frame) samples available for track evaluation."""


class NoValidPixels(Scene4DError):
    """Depth evaluation has no jointly valid pixels."""


# --- transformer ---

class IndivisibleResolution(Scene4DError):
    """Image height/width not divisible by the patch size."""


class TargetOutOfRange(Scene4DError):
    """Aggregation target index outside the frame range."""


# --- tensor / file formats ---

class BadMagic(Scene4DError):
    """Tensor file does not start with the expected magic bytes."""


class UnsupportedVersion(Scene4DError):
    """Tensor file version is not supported."""


class TruncatedPayload(Scene4DError):
    """Tensor file payload shorter than the header promises."""


class MalformedHeader(InputError):
    """PLY header or body cannot be parsed."""
