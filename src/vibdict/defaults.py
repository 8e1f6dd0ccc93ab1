"""Choices and defaults that the command line's parser shares with the library.

They live apart from the modules that use them, so that building the
parser loads no coder, detector or fleet generator.
"""

MP = "mp"
OMP = "omp"
ALGORITHMS = (MP, OMP)

# Default trailing window for the slope detector, matching the indicator
# smoothing horizon of 30 segments.
DEFAULT_SLOPE_WINDOW = 30

DEFAULT_SAMPLE_RATE = 12800.0
# Prime and incommensurate with power-of-two segment lengths.
DEFAULT_IMPULSE_PERIOD = 149
