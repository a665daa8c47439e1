"""How `tools/same_outputs.py` describes a file that differs between two
versions of the package: the line every byte-identity check prints."""

import io

import numpy as np

from tools.same_outputs import array_difference, number_difference, vtk_difference


def test_roundoff_change_reports_the_largest_relative_difference():
    before = b"t=1.000000e-04  E=2.500000e+00\nstep 10 of 20\n"
    after = b"t=1.000000e-04  E=2.500001e+00\nstep 10 of 20\n"
    # |2.5 - 2.500001| / 2.500001; the unchanged numbers add nothing to it,
    # but the file's largest value, 20, scales the absolute difference 1e-6
    assert number_difference(before, after) == \
        "largest relative difference 4.0e-07, largest difference 5.0e-08 of the file's " \
        "largest value"
    assert number_difference(b"x 1 -4", b"x 1 -2") == \
        "largest relative difference 5.0e-01, largest difference 5.0e-01 of the file's " \
        "largest value"


def test_change_on_a_near_zero_value_is_small_against_the_file():
    # a value near zero that changes by half of itself is a relative change of
    # 0.5, but 1e-12 of the largest value the file holds
    before = b"1.0e+03 2.0e-09 5.0\n"
    after = b"1.0e+03 1.0e-09 5.0\n"
    assert number_difference(before, after) == \
        "largest relative difference 5.0e-01, largest difference 1.0e-12 of the file's " \
        "largest value"


def test_change_outside_the_numbers_is_text():
    assert number_difference(b"step 1 ok\n", b"step 1 failed\n") == \
        "text differs beyond its numbers"
    # one more number is a change of the text around them too
    assert number_difference(b"1 2\n", b"1 2 3\n") == "text differs beyond its numbers"


def test_equal_numbers_written_differently_differ_by_zero():
    assert number_difference(b"dt = 1e-4, n = 20\n", b"dt = 0.0001, n = 20.0\n") == \
        "largest relative difference 0.0e+00, largest difference 0.0e+00 of the file's " \
        "largest value"


def test_binary_input_is_not_parsed():
    assert number_difference(b"PK\x03\x04\x00\x01", b"PK\x03\x04\x00\x02") == "binary"
    assert number_difference(b"1.0\n", b"1.0\x00\n") == "binary"


def npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def test_npz_archives_are_compared_array_by_array():
    u = np.array([4.0, -2.0, 1e-9])
    meta = np.bytes_(b'{"dt": 0.0001}')
    before = npz(u=u, k=np.int64(3), meta=meta, same=np.ones(2))
    after = npz(u=u + [0.0, 0.0, 4e-12], k=np.int64(3), meta=meta, same=np.ones(2))
    # |4e-12| / 4: only the array that differs is named
    assert array_difference(before, after) == \
        "arrays differ, largest difference of each array's largest value: u 1.0e-12"
    other = npz(u=u, k=np.int64(4), meta=np.bytes_(b"{}"), same=np.ones(3))
    assert array_difference(before, other) == \
        "arrays differ, largest difference of each array's largest value: k 2.5e-01, " \
        "meta: shape or type differs, same: shape or type differs"
    assert array_difference(before, npz(u=u)) == "array names differ"


VTK = b"""# vtk DataFile Version 3.0
t=1.000000e-04
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 3 double
0 0 0
%s 0 0
0 40 0
CELLS 1 4
3 0 1 2
CELL_TYPES 1
5
POINT_DATA 3
SCALARS p_f double 1
LOOKUP_TABLE default
1300
-2.5
700
VECTORS v_s double
%s 0 0
2e-4 -1e-3 0
0 0 0
"""


def test_vtk_files_are_compared_block_by_block():
    before = VTK % (b"50", b"4e-3")
    after = VTK % (b"50", b"4.000004e-3")
    # the change of 4e-9 in v_s is 1e-6 of v_s's largest value, 4e-3, but
    # 3e-12 of the file's, the pressure 1300
    assert number_difference(before, after).endswith("3.1e-12 of the file's largest value")
    assert vtk_difference(before, after) == \
        "largest relative difference 1.0e-06, largest difference of each data block's " \
        "largest value: v_s 1.0e-06"
    moved = VTK % (b"50.00005", b"4e-3")
    assert vtk_difference(before, moved) == \
        "largest relative difference 1.0e-06, largest difference of each data block's " \
        "largest value: POINTS 1.0e-06"
    assert vtk_difference(before, moved.replace(b"POINTS 3", b"POINTS 4")) == \
        "largest relative difference 2.5e-01, largest difference of each data block's " \
        "largest value: POINTS header 2.5e-01, POINTS 1.0e-06"
    assert vtk_difference(before, before.replace(b"v_s", b"v_f")) == \
        "text differs beyond its numbers"
