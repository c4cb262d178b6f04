"""Records: the frozen value classes of treelin (spectra, problems, reports, trees)."""

from __future__ import annotations

import copy
import pickle

import pytest

from treelin import FieldSpectrum, GermSpectrum, LabeledTree, enumerate_labeled
from treelin.diagnostics import MembershipFit


def test_records_construct_validate_freeze_compare_and_print():
    # positional order, keywords and defaults
    spec = GermSpectrum((1j,))
    assert spec.lam == (1j,) and spec.rotation is None
    for same in (GermSpectrum(lam=(1j,)), GermSpectrum((1j,), None),
                 GermSpectrum((1j,), rotation=None)):
        assert same == spec
    fit = MembershipFit(True, 1.0, 2.0, 0.5, 4)
    assert fit.reason == ""
    assert fit == MembershipFit(True, 1.0, 2.0, max_violation=0.5, points=4, reason="")
    for args, kwargs in (((), {}), (((1j,), None, 3), {}), (((1j,),), {"lam": (2j,)}),
                         (((1j,),), {"rot": None})):
        with pytest.raises(TypeError):
            GermSpectrum(*args, **kwargs)
    # the checks and normalization that run on construction
    assert GermSpectrum([1]).lam == (1 + 0j,) and type(GermSpectrum([1]).lam[0]) is complex
    for lam in ((0j,), (1j, 1j)):
        with pytest.raises(ValueError):
            GermSpectrum(lam)
    # LabeledTree compares and hashes by tree and labels only
    tree = enumerate_labeled(3, (4,), 0, [(2,)])[0]
    fields = (tree.m, tree.node_labels, tree.line_axes, tree.betas, tree.momenta,
              tree.weight, tree.binom_product)
    twin = LabeledTree(*fields[:3], (), (), -1.0, 0.0)
    assert twin == tree and hash(twin) == hash(tree)
    assert LabeledTree(tree.m, tree.node_labels, (0, 0, 1), *fields[3:]) != tree
    assert LabeledTree(*fields) == tree and tree != tree.sort_key()
    # frozen: no field is assigned or deleted, and no attribute added
    for record, name in ((spec, "lam"), (fit, "reason"), (tree, "weight"), (tree, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del spec.rotation
    assert spec.rotation is None and tree.weight == fields[5]
    # equal only to a record of the same class
    assert GermSpectrum((1j,)) != GermSpectrum((-1j,))
    assert FieldSpectrum((1j,)) != GermSpectrum((1j,))
    assert hash(spec) == hash(GermSpectrum((1j,)))
    # the repr names every field, in order
    assert repr(spec) == "GermSpectrum(lam=(1j,), rotation=None)"
    assert repr(fit) == ("MembershipFit(accepted=True, A=1.0, B=2.0, max_violation=0.5, "
                         "points=4, reason='')")
    assert repr(twin) == (f"LabeledTree(m={tree.m!r}, node_labels={tree.node_labels!r}, "
                          f"line_axes={tree.line_axes!r}, betas=(), momenta=(), weight=-1.0, "
                          f"binom_product=0.0)")
    # copies and pickles are equal records
    for record in (spec, fit, tree, GermSpectrum.from_rotation((0.25,))):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and repr(clone) == repr(record)
