"""How `tools/same_outputs.py` describes a file that differs between two
versions of the package: the line every byte-identity check prints."""

from tools.same_outputs import number_difference


def test_roundoff_change_reports_the_largest_relative_difference():
    before = b"t=1.000000e-04  E=2.500000e+00\nstep 10 of 20\n"
    after = b"t=1.000000e-04  E=2.500001e+00\nstep 10 of 20\n"
    # |2.5 - 2.500001| / 2.500001; the unchanged numbers add nothing
    assert number_difference(before, after) == "largest relative difference 4.0e-07"
    assert number_difference(b"x 1 -4", b"x 1 -2") == "largest relative difference 5.0e-01"


def test_change_outside_the_numbers_is_text():
    assert number_difference(b"step 1 ok\n", b"step 1 failed\n") == \
        "text differs beyond its numbers"
    # one more number is a change of the text around them too
    assert number_difference(b"1 2\n", b"1 2 3\n") == "text differs beyond its numbers"


def test_equal_numbers_written_differently_differ_by_zero():
    assert number_difference(b"dt = 1e-4, n = 20\n", b"dt = 0.0001, n = 20.0\n") == \
        "largest relative difference 0.0e+00"


def test_binary_input_is_not_parsed():
    assert number_difference(b"PK\x03\x04\x00\x01", b"PK\x03\x04\x00\x02") == "binary"
    assert number_difference(b"1.0\n", b"1.0\x00\n") == "binary"
