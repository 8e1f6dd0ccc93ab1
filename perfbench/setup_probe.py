"""Set-up probe: import vibdict and code one 256-sample segment.

Usage: python perfbench/setup_probe.py <algorithm> [baseline.vdct]

Every CLI stage pays interpreter start, the vibdict import and the first
coding call; a lazily built kernel or table would show here. Without a
baseline the default pseudorandom seed dictionary is used.
"""

import sys

import numpy as np

import vibdict


def main(argv) -> int:
    algorithm = argv[1]
    if len(argv) > 2:
        dictionary = vibdict.load_dictionary(argv[2])
    else:
        dictionary = vibdict.init_pseudorandom()
    rng = np.random.default_rng(0)
    segment = vibdict.preprocess(vibdict.SignalSegment(rng.standard_normal(256), 12800.0, 0, "probe"))
    code = vibdict.encode(segment, dictionary, vibdict.CodingConfig(algorithm))
    return 0 if code.instances else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
