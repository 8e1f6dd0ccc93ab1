import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vibdict.dictionary import (
    Atom,
    Dictionary,
    init_pseudorandom,
    load_dictionary,
    maybe_grow,
    save_dictionary,
    unit_normalize,
)
from vibdict.errors import DataError, NumericError

from oracles import MALFORMED_VDCT, vdct_bytes


class TestNormalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        w = unit_normalize(rng.standard_normal(30))
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_normalize(np.zeros(5))

    def test_direction_preserved(self):
        w = np.array([3.0, 4.0])
        np.testing.assert_allclose(unit_normalize(w), [0.6, 0.8])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("w", [np.full(4, 1e300), np.array([1.0, np.inf]),
                                   np.array([np.nan, 1.0])])
    def test_non_finite_norm_is_numeric_error(self, w):
        # 1e300 is finite, but its norm overflows; dividing by it gave zeros
        with pytest.raises(NumericError, match="^cannot normalize a waveform of norm (inf|nan)$"):
            unit_normalize(w)

    def test_large_finite_norm_divides_as_before(self):
        w = np.full(4, 1e150)
        assert unit_normalize(w).tobytes() == (w / np.linalg.norm(w)).tobytes()


class TestAtom:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        w = np.ones(5)
        w[3] = bad
        with pytest.raises(ValueError, match=rf"^atom 7: non-finite sample {bad} at index 3$"):
            Atom(w, 7)


class TestInit:
    def test_shape_and_padding(self):
        d = init_pseudorandom(num_atoms=8, core_len=50, pad=10, seed=0)
        assert len(d) == 8
        assert d.generation == 0
        for m, atom in enumerate(d.atoms):
            assert atom.id == m
            assert len(atom) == 70
            np.testing.assert_array_equal(atom.waveform[:10], 0.0)
            np.testing.assert_array_equal(atom.waveform[-10:], 0.0)
            assert abs(np.linalg.norm(atom.waveform) - 1.0) < 1e-12

    def test_seed_reproducible(self):
        a = init_pseudorandom(seed=123)
        b = init_pseudorandom(seed=123)
        for atom_a, atom_b in zip(a.atoms, b.atoms):
            np.testing.assert_array_equal(atom_a.waveform, atom_b.waveform)

    def test_different_seeds_differ(self):
        a = init_pseudorandom(seed=1)
        b = init_pseudorandom(seed=2)
        assert not np.array_equal(a.atoms[0].waveform, b.atoms[0].waveform)

    def test_duplicate_ids_rejected(self):
        atom = Atom(unit_normalize(np.ones(4)), 0)
        with pytest.raises(ValueError, match="unique"):
            Dictionary((atom, Atom(atom.waveform.copy(), 0)))


class TestGrow:
    def quiet_tails(self, core=30, tail=10):
        w = np.concatenate([np.zeros(tail), np.ones(core), np.zeros(tail)])
        return Atom(unit_normalize(w), 0)

    def test_no_growth_returns_same_object(self):
        atom = self.quiet_tails()
        assert maybe_grow(atom, tail_len=10, ratio=0.1) is atom

    def test_trailing_growth_appends_zeros(self):
        w = np.concatenate([np.zeros(10), np.ones(30), np.full(10, 0.5)])
        atom = Atom(unit_normalize(w), 3)
        grown = maybe_grow(atom, tail_len=10, ratio=0.1)
        assert len(grown) == 60
        assert grown.id == 3
        np.testing.assert_array_equal(grown.waveform[-10:], 0.0)
        # interior samples keep their direction, only the norm changes
        np.testing.assert_allclose(
            unit_normalize(grown.waveform[:50]), unit_normalize(w), atol=1e-12
        )

    def test_leading_growth_prepends_zeros(self):
        w = np.concatenate([np.full(10, 0.5), np.ones(30), np.zeros(10)])
        grown = maybe_grow(Atom(unit_normalize(w), 0), tail_len=10, ratio=0.1)
        assert len(grown) == 60
        np.testing.assert_array_equal(grown.waveform[:10], 0.0)

    def test_both_tails_grow_independently(self):
        w = np.ones(40)
        grown = maybe_grow(Atom(unit_normalize(w), 0), tail_len=10, ratio=0.1)
        assert len(grown) == 60
        np.testing.assert_array_equal(grown.waveform[:10], 0.0)
        np.testing.assert_array_equal(grown.waveform[-10:], 0.0)

    def test_growth_decision_is_scale_invariant(self):
        w = np.concatenate([np.zeros(10), np.ones(30), np.full(10, 0.2)])
        small = maybe_grow(Atom(w, 0), tail_len=10, ratio=0.1)
        large = maybe_grow(Atom(100.0 * w, 0), tail_len=10, ratio=0.1)
        assert len(small) == len(large) == 60

    def test_too_short_atom_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            maybe_grow(Atom(unit_normalize(np.ones(15)), 0), tail_len=10)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        d = init_pseudorandom(num_atoms=4, core_len=20, pad=5, seed=9)
        d = Dictionary(d.atoms, generation=12345)
        path = tmp_path / "dict.vdct"
        save_dictionary(d, str(path))
        out = load_dictionary(str(path))
        assert out.generation == 12345
        assert len(out) == 4
        for a, b in zip(d.atoms, out.atoms):
            assert a.id == b.id
            np.testing.assert_array_equal(a.waveform, b.waveform)

    def test_round_trip_mixed_lengths(self, tmp_path):
        rng = np.random.default_rng(1)
        atoms = tuple(
            Atom(unit_normalize(rng.standard_normal(n)), i)
            for i, n in enumerate([8, 70, 33])
        )
        path = tmp_path / "dict.vdct"
        save_dictionary(Dictionary(atoms, generation=7), str(path))
        out = load_dictionary(str(path))
        assert [len(a) for a in out.atoms] == [8, 70, 33]

    def test_save_twice_identical_bytes(self, tmp_path):
        d = init_pseudorandom(num_atoms=2, core_len=10, pad=2, seed=4)
        p1, p2 = tmp_path / "a.vdct", tmp_path / "b.vdct"
        save_dictionary(d, str(p1))
        save_dictionary(d, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vdct"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_dictionary(str(path))

    def test_truncation_reports_offset(self, tmp_path):
        d = init_pseudorandom(num_atoms=2, core_len=10, pad=0, seed=0)
        path = tmp_path / "dict.vdct"
        save_dictionary(d, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="byte offset"):
            load_dictionary(str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        d = init_pseudorandom(num_atoms=1, core_len=6, pad=0, seed=0)
        path = tmp_path / "dict.vdct"
        save_dictionary(d, str(path))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            load_dictionary(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        d = init_pseudorandom(num_atoms=1, core_len=6, pad=0, seed=0)
        path = tmp_path / "dict.vdct"
        save_dictionary(d, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_dictionary(str(path))


class TestMalformedContent:
    def test_hand_encoding_matches_save(self, tmp_path):
        d = Dictionary((Atom([0.6, 0.8], 3), Atom([1.0], 9)), generation=5)
        save_dictionary(d, str(tmp_path / "d.vdct"))
        assert (tmp_path / "d.vdct").read_bytes() == vdct_bytes(
            [(3, [0.6, 0.8]), (9, [1.0])], generation=5)

    @pytest.mark.parametrize("case", sorted(MALFORMED_VDCT))
    def test_rejected_naming_the_file(self, tmp_path, case):
        atoms, message = MALFORMED_VDCT[case]
        path = tmp_path / f"{case}.vdct"
        path.write_bytes(vdct_bytes(atoms))
        with pytest.raises(DataError) as exc:
            load_dictionary(str(path))
        assert str(exc.value) == f"{path}: {message}"


class TestSerializationProperty:
    # every finite float64, subnormals and -0.0 included, must survive; a
    # waveform of zero norm is not an atom a file may hold
    WAVEFORM = st.integers(1, 200).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(allow_nan=False,
                                                           allow_infinity=False))
    ).filter(lambda w: np.linalg.norm(w) > 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # huge norms
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8, unique=True),
        st.data(),
        st.integers(0, 2**64 - 1),
    )
    def test_round_trip_and_every_truncation(self, ids, data, generation):
        atoms = tuple(Atom(data.draw(self.WAVEFORM), atom_id) for atom_id in ids)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.vdct")
            save_dictionary(Dictionary(atoms, generation), path)
            out = load_dictionary(path)
            assert out.generation == generation
            assert [a.id for a in out.atoms] == ids
            for a, b in zip(out.atoms, atoms):
                assert a.waveform.tobytes() == b.waveform.tobytes()
            with open(path, "ab") as fh:
                fh.write(b"\x00")
            with pytest.raises(DataError, match="trailing"):
                load_dictionary(path)
            # every strict prefix, longest first, by cutting the file in place
            for size in reversed(range(os.path.getsize(path) - 1)):
                os.truncate(path, size)
                with pytest.raises(DataError):
                    load_dictionary(path)
