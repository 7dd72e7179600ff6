"""Every route's accuracy, judged on the committed 34-digit reference set.

``reference_values.csv`` holds F and G at each row's exact double inputs,
from the split in mpmath; ``reference_gates.csv`` holds the error of
``cdf``, ``cdf_quad_split`` and ``cdf_quad_direct`` on each row when the
set landed, or ``refused``.  ``make_reference.py`` writes both and says
how; its gates never rise.  Each route must stay within max(gate, floor)
on every row, the floor about one ulp, and must refuse exactly where its
gate says so.
"""

from make_reference import errors, read_gates, read_values, reference, rows, within


def test_every_route_stays_within_its_gate_on_every_row():
    values, gates = read_values(), read_gates()
    assert len(values) == len(gates) >= 1000
    failures = []
    for i, (row, gate) in enumerate(zip(values, gates)):
        kind, errs = errors(row)
        assert kind == gate["class"], (i, row)
        for route, err in errs.items():
            if not within(err, gate[route], kind):
                failures.append((i + 2, row.source, route, str(err), gate[route]))
    assert not failures, failures


# one row of each error class by its line in both files, each of the
# cheapest to recompute: z below 1, so the precisions take no extra digits
REGENERATED = {"body": 371, "left": 411, "right": 361}


def test_rows_of_each_error_class_regenerate_to_their_stored_digits():
    values, gates = read_values(), read_gates()
    for kind, line in REGENERATED.items():
        row = values[line - 2]
        assert gates[line - 2]["class"] == kind, row
        assert reference(row) == (row.F, row.G), row


def test_generator_rebuilds_the_committed_inputs():
    # the generator's rows, in file order, are the committed rows' sources
    # and exact inputs: the band rows come from the frozen landing edges,
    # not from the live band table
    assert [r[:6] for r in rows()] == [r[:6] for r in read_values()]
