"""The field records of ``src/``: each keeps the constructor, repr,
equality, hash and immutability that ``dataclasses`` gave it."""

import copy
import dataclasses
import inspect
import json

import numpy as np
import pytest

from anop import decompose, matrix, model, oracle, sequences
from anop import serialize as sz

from conftest import SPECS

#: every record class: (frozen, its constructor's signature as
#: ``dataclass(frozen=True)`` or, unfrozen, ``dataclass(eq=False)`` wrote it)
RECORDS = {
    sequences.DecaySequence: (True,
        "(kind: 'str', terms_: 'tuple[float, ...]' = (), first: 'float' = 0.0,"
        " ratio: 'float' = 0.0, scale: 'float' = 0.0, terminating: 'bool' = True) -> None"),
    model.EigenvalueEntry: (True, "(value: 'complex', mult: 'float') -> None"),
    model.Cluster: (True,
        "(limit: 'complex', side: 'str', deltas: 'DecaySequence') -> None"),
    model.SpectrumModel: (True,
        "(kind: 'str', points: 'tuple[EigenvalueEntry, ...]' = (),"
        " clusters: 'tuple[Cluster, ...]' = ()) -> None"),
    model.ANVerdict: (True,
        "(is_an: 'bool', violations: 'tuple[str, ...]',"
        " modulus_collapsed: 'SpectrumModel') -> None"),
    model.ModuliReport: (True,
        "(operator_norm: 'float', min_modulus: 'float', essential_min_modulus: 'float',"
        " norm_attained: 'bool', finite_dim: 'bool') -> None"),
    decompose.PositiveTriple: (True,
        "(alpha: 'float', k_entries: 'SpectrumModel', f_entries: 'tuple[EigenvalueEntry, ...]',"
        " identity_multiplicity: 'float') -> None"),
    decompose.Block: (True,
        "(phase: 'complex', part: 'str', value: 'float', mult: 'float') -> None"),
    decompose.StructuredDecomposition: (True,
        "(alpha: 'float', blocks: 'tuple[Block, ...]', cluster_blocks: 'tuple[Cluster, ...]',"
        " kernel_multiplicity: 'float') -> None"),
    decompose.AMForm: (True,
        "(beta: 'float', k1_entries: 'tuple[EigenvalueEntry, ...]',"
        " k1_clusters: 'tuple[Cluster, ...]', f1_entries: 'tuple[EigenvalueEntry, ...]',"
        " identity_multiplicity: 'float') -> None"),
    decompose.FredholmReport: (True,
        "(kernel_dimension: 'float', range_closed: 'bool', is_fredholm: 'bool',"
        " is_left_semi_fredholm: 'bool', essential_min_modulus: 'float',"
        " is_injective: 'bool') -> None"),
    oracle.TruncationProfile: (True, "(depth: 'int' = 12) -> None"),
    oracle.OracleFailure: (True,
        "(kind: 'str', witness: 'tuple', detail: 'str') -> None"),
    oracle.OracleReport: (True,
        "(is_an: 'bool', failures: 'tuple[OracleFailure, ...]', subsets_checked: 'int',"
        " pairs_checked: 'int') -> None"),
    matrix.EigenDecomposition: (False,
        "(values: 'np.ndarray', vectors: 'np.ndarray', sweeps: 'int' = 0) -> None"),
    matrix.PolarPair: (False,
        "(isometry: 'np.ndarray', modulus: 'np.ndarray') -> None"),
    matrix.BlockForm: (False,
        "(on_range: 'np.ndarray', on_kernel: 'np.ndarray', off_diagonal_norm: 'float',"
        " range_dim: 'int', kernel_dim: 'int') -> None"),
    matrix.RealizedOperator: (False,
        "(matrix: 'np.ndarray', compact: 'np.ndarray', finite: 'np.ndarray',"
        " isometry: 'np.ndarray', alpha: 'float', diagonal: 'np.ndarray',"
        " unitary: 'np.ndarray', labels: 'tuple[str, ...]') -> None"),
    matrix.WitnessReport: (True,
        "(identity_residual: 'float', partial_isometry_defect: 'float',"
        " script_k_min_eig: 'float', script_f_min_eig: 'float', an_predicted: 'bool') -> None"),
    matrix.VerificationReport: (True,
        "(ok: 'bool', mode: 'str', recombination_residual: 'float', kf_residual: 'float',"
        " k_hermitian_defect: 'float', f_hermitian_defect: 'float', k_psd_defect: 'float',"
        " f_psd_defect: 'float', f_bound_defect: 'float', normality_defect: 'float',"
        " partial_isometry_defect: 'float', off_diagonal_norm: 'float',"
        " witness_min_eig: 'float', failures: 'tuple[str, ...]' = ()) -> None"),
}


@pytest.fixture(scope="module")
def samples():
    """One instance of each record class, as the library builds it."""
    def spec(name):
        return sz.parse_model(json.loads((SPECS / f"{name}.json").read_text()))

    full = spec("uniqueness_full")
    triple = decompose.decompose_positive(full)
    sd = decompose.structure_normal(spec("selfadjoint_signed"))
    ro = matrix.realize_matrix(triple, 8, 3)
    refuted = oracle.attainment_oracle(spec("violator_from_below"))
    built = [
        full.clusters[0].deltas, full.points[0], full.clusters[0], full,
        model.classify(full), model.moduli_report(full),
        triple, sd.blocks[0], sd, decompose.invert_triple(triple),
        decompose.fredholm_report(triple),
        oracle.TruncationProfile(5), refuted.failures[0], refuted,
        matrix.hermitian_eigen(np.diag([2.0, 1.0])),
        matrix.polar_decompose(np.array([[0.0, 2.0], [1.0, 0.0]])),
        matrix.block_form(ro.matrix, ro.finite), ro,
        matrix.converse_witness(ro.compact, ro.finite, ro.isometry, ro.alpha),
        matrix.verify_structure(ro.matrix, ro.compact, ro.finite, ro.isometry, ro.alpha),
    ]
    return {type(obj): obj for obj in built}


def field_names(cls):
    return list(inspect.signature(cls).parameters)


def dataclass_twin(cls):
    """The class ``dataclasses`` makes of ``cls``'s fields and defaults."""
    frozen = RECORDS[cls][0]
    notes = dict(cls.__annotations__)
    body = {n: cls.__dict__[n] for n in notes if n in cls.__dict__}
    body.update(__annotations__=notes, __qualname__=cls.__qualname__, __module__=cls.__module__)
    return dataclasses.dataclass(frozen=frozen, eq=frozen)(type(cls.__name__, (), body))


_IDS = [cls.__name__ for cls in RECORDS]


def test_every_record_has_a_sample(samples):
    assert list(samples) == list(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_signature_is_the_dataclass_signature(cls):
    want = RECORDS[cls][1]
    assert str(inspect.signature(cls)) == want
    assert str(inspect.signature(dataclass_twin(cls))) == want


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_repr_and_vars_are_the_dataclass_ones(cls, samples):
    obj = samples[cls]
    names = field_names(cls)
    # vars() lists the fields first, in field order (serialize.encoded relies
    # on it); a model may keep its modulus spectrum after them
    assert list(vars(obj))[:len(names)] == names
    twin = dataclass_twin(cls)(**{n: getattr(obj, n) for n in names})
    assert repr(obj) == repr(twin)


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_record_equality_and_hash(cls, samples):
    frozen = RECORDS[cls][0]
    obj, same = samples[cls], copy.copy(samples[cls])
    names = field_names(cls)
    other = copy.copy(obj)
    other.__dict__[names[-1]] = "changed"
    twin = dataclass_twin(cls)(**{n: getattr(obj, n) for n in names})
    assert obj == obj and obj != other and obj != twin
    if frozen:
        assert same == obj and not same != obj
        assert hash(same) == hash(obj) == hash(tuple(getattr(obj, n) for n in names))
    else:
        assert same != obj and hash(obj) == object.__hash__(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, samples):
    frozen = RECORDS[cls][0]
    obj = copy.copy(samples[cls])
    name = field_names(cls)[0]
    before = dict(vars(obj))
    if not frozen:
        setattr(obj, name, "changed")
        assert getattr(obj, name) == "changed"
        return
    for change in (lambda: setattr(obj, name, "changed"), lambda: delattr(obj, name),
                   lambda: setattr(obj, "no_such_field", 1)):
        with pytest.raises(AttributeError):
            change()
    assert vars(obj) == before

