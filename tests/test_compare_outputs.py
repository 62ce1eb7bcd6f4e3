"""tools/compare_outputs.py: the per-column summary of a differing CSV."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
import compare_outputs  # noqa: E402

HEADER = "case,p,eps,rho_or_delta,renormalized,profile,bound,pass\n"


def test_largest_relative_change_per_column_and_pass_flips():
    parent = (HEADER + "x,2,0.5,0,1.0,2.0,0.5,true\n"
              "x,2,0.5,1,4.0,2.0,inf,true\n").encode()
    change = (HEADER + "x,2,0.5,0,1.25,2.0,0.5,false\n"
              "x,2,0.5,1,4.0,2.5,1.0,true\n").encode()
    assert compare_outputs.csv_change(parent, change) == \
        "; renormalized 0.2, profile 0.2, bound inf, pass flips 1"


def test_rows_that_do_not_line_up_give_no_summary():
    parent = (HEADER + "x,2,0.5,0,1.0,2.0,0.5,true\n").encode()
    other_rho = (HEADER + "x,2,0.5,1,1.0,2.0,0.5,true\n").encode()
    assert compare_outputs.csv_change(parent, other_rho) == ""
    assert compare_outputs.csv_change(parent, HEADER.encode()) == ""
