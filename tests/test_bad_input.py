"""Bad input across the public entry points, one (call, exception, match)
case each: shapes, towers, parameters and values that the library refuses
before it computes anything.  Non-integer parameters are in
`test_experiments.test_non_integer_parameters_refused`."""

import json
import random

import pytest

from rankforge import (BaseMatrix, ExtMatrix, FieldSpec, InvalidParameterError,
                       Isometry, MultilinearPoly, RankCode, ShapeError,
                       SpecMismatchError, apply_isometry, census,
                       count_intersecting_subspaces, default_field, det, dual_code,
                       enumerate_elements, enumerate_G, enumerate_R1K, enumerate_rref,
                       euler_phi, expand_to_base, f_E_degree, figure_data,
                       frobenius_code, gab_bound, gab_bound_rough, gabidulin,
                       gaussian_binomial, intersection_dim, is_gabidulin, is_mrd,
                       is_mrd_fullrank_variant, linearly_independent_over_base,
                       min_rank_distance, monte_carlo, moore_matrix, mrd_bound,
                       random_element, random_isometry, random_systematic_code, rank,
                       rank1_criterion, rank_distance, rref, sum_f_E_degrees,
                       symbolic_f_E, trace_kernel)
from rankforge.experiments import census_progress

F8 = default_field(2, 3)
F16 = default_field(2, 4)
A, B = F16.element(1), F16.element(2)
OTHER = F8.element(1)
CODE = RankCode.from_systematic(F16, ExtMatrix(F16, [[3, 5]]))  # k = 1, n = 3


def dimension_mismatch(kind, spec, rows):
    data = kind(spec, rows).to_json()
    data["rows"] += 1
    return lambda: kind.from_json(spec, data)


def code_with_generator(generator):
    """CODE's JSON with its generator block replaced by generator(block)."""
    data = CODE.to_json()
    data["generator"] = generator(data["generator"])
    return lambda: RankCode.from_json(data)


# an F_16 matrix that is a full-rank RREF by its indices, not a BaseMatrix
EXT_RREF = ExtMatrix(F16, [[1, 0, 5, 7], [0, 1, 9, 3]])


CASES = {
    "code-k-above-n": (lambda: RankCode(F16, ExtMatrix(F16, [[1], [2]])),
                       InvalidParameterError, "does not have full row rank"),
    "code-other-field": (lambda: RankCode(F16, ExtMatrix(F8, [[1, 2]])),
                         SpecMismatchError, "generator belongs to a different field"),
    "code-none-generator": (lambda: RankCode(F16, None),
                            InvalidParameterError, "G must be an ExtMatrix, got None"),
    "code-base-generator": (lambda: RankCode(F16, BaseMatrix(F16, [[1, 0, 1]])),
                            InvalidParameterError, r"G must be an ExtMatrix, got BaseMatrix"),
    "from-systematic-none": (lambda: RankCode.from_systematic(F16, None),
                             InvalidParameterError, "X must be an ExtMatrix, got None"),
    "code-json-generator-key": (code_with_generator(lambda g: {**g, "comment": "x"}),
                                InvalidParameterError, "unknown matrix key comment"),
    "code-json-generator-no-entries": (
        code_with_generator(lambda g: {"rows": g["rows"], "cols": g["cols"]}),
        InvalidParameterError, "matrix lacks a key; the keys are rows, cols, entries"),
    "code-json-generator-list": (code_with_generator(lambda g: g["entries"]),
                                 InvalidParameterError, "matrix is not a JSON object"),
    # a missing key or a non-list block is refused, not a KeyError or TypeError
    "field-json-p-only": (lambda: FieldSpec.from_json({"p": 2}), InvalidParameterError,
                          "field tower lacks a key; the keys are p, e, m, base_modulus"),
    "code-json-empty": (lambda: RankCode.from_json({}), InvalidParameterError,
                        "code lacks a key; the keys are field, n, k, generator"),
    "code-json-no-generator": (
        lambda: RankCode.from_json({k: v for k, v in CODE.to_json().items() if k != "generator"}),
        InvalidParameterError, "code lacks a key"),
    "ext-json-int-entries": (
        lambda: ExtMatrix.from_json(F16, {"rows": 1, "cols": 1, "entries": 5}),
        InvalidParameterError, "matrix entries must be a list, got 5"),
    "ext-json-int-row": (lambda: ExtMatrix.from_json(F16, {"rows": 1, "cols": 1, "entries": [5]}),
                         InvalidParameterError, "a matrix row must be a list, got 5"),
    "ext-json-int-entry": (
        lambda: ExtMatrix.from_json(F16, {"rows": 1, "cols": 1, "entries": [[5]]}),
        InvalidParameterError, "coefficients must be a list, got 5"),
    "base-json-int-entries": (
        lambda: BaseMatrix.from_json(F16, {"rows": 1, "cols": 1, "entries": 5}),
        InvalidParameterError, "matrix entries must be a list, got 5"),
    "base-json-int-row": (
        lambda: BaseMatrix.from_json(F16, {"rows": 1, "cols": 1, "entries": [5]}),
        InvalidParameterError, "a matrix row must be a list, got 5"),
    "field-int-base-modulus": (lambda: FieldSpec(2, 1, 4, base_modulus=5),
                               InvalidParameterError, "base_modulus must be a list, got 5"),
    "field-int-ext-modulus": (lambda: FieldSpec(2, 1, 4, ext_modulus=7),
                              InvalidParameterError, "ext_modulus must be a list, got 7"),
    "element-int-coefficients": (lambda: F16.element_from_coeffs(5),
                                 InvalidParameterError, "coefficients must be a list, got 5"),
    "distance-empty": (lambda: rank_distance([], []), ShapeError, "empty vectors"),
    "distance-mixed": (lambda: rank_distance([A, B], [A, OTHER]),
                       SpecMismatchError, "mixed field towers"),
    "distance-ints": (lambda: rank_distance([1, 2], [3, 4]),
                      InvalidParameterError, "expected a field Element, got 1"),
    "distance-int-in-y": (lambda: rank_distance([A, B], [A, 3]),
                          InvalidParameterError, "expected a field Element, got 3"),
    "moore-empty": (lambda: moore_matrix([], 1, 1), ShapeError, "empty evaluation vector"),
    "moore-mixed": (lambda: moore_matrix([A, OTHER], 1, 2),
                    SpecMismatchError, "mixed field towers"),
    "moore-ints": (lambda: moore_matrix([2, 4], 1, 2),
                   InvalidParameterError, "expected a field Element, got 2"),
    "gabidulin-empty": (lambda: gabidulin([], 1, 1), ShapeError, "empty evaluation vector"),
    "gabidulin-mixed": (lambda: gabidulin([A, OTHER], 1, 1),
                        SpecMismatchError, "mixed field towers"),
    "gabidulin-ints": (lambda: gabidulin([2, 4], 1, 1),
                       InvalidParameterError, "expected a field Element, got 2"),
    "gabidulin-k-above-n": (lambda: gabidulin([A, B], 1, 3),
                            InvalidParameterError, r"need 1 <= k <= n, got k=3, n=2"),
    "isometry-other-field": (
        lambda: apply_isometry(CODE, Isometry(OTHER, BaseMatrix.identity(F16, 3), 0)),
        SpecMismatchError, "isometry defined over a different field"),
    "isometry-wrong-size": (
        lambda: apply_isometry(CODE, Isometry(A, BaseMatrix.identity(F16, 2), 0)),
        ShapeError, "A must be 3x3, got 2x2"),
    "isometry-ext-matrix-A": (
        lambda: apply_isometry(gabidulin([F16.element(2), F16.element(3), F16.element(13)], 1, 2),
                               Isometry(F16.one, ExtMatrix(F16, [[1, 0, 0], [0, 11, 0],
                                                                 [0, 0, 1]]), 0)),
        InvalidParameterError, "A must be a BaseMatrix over F_q"),
    "isometry-int-lambda": (
        lambda: apply_isometry(CODE, Isometry(1, BaseMatrix.identity(F16, 3), 0)),
        InvalidParameterError, "lambda must be a field Element, got 1"),
    "isometry-float-sigma": (
        lambda: apply_isometry(CODE, Isometry(A, BaseMatrix.identity(F16, 3), 1.5)),
        InvalidParameterError, "sigma_power must be an integer, got 1.5"),
    "isometry-str-sigma": (
        lambda: apply_isometry(CODE, Isometry(A, BaseMatrix.identity(F16, 3), "1")),
        InvalidParameterError, "sigma_power must be an integer, got '1'"),
    "isometry-none-code": (
        lambda: apply_isometry(None, Isometry(A, BaseMatrix.identity(F16, 3), 0)),
        InvalidParameterError, "code must be a RankCode, got None"),
    "isometry-none": (lambda: apply_isometry(CODE, None),
                      InvalidParameterError, "iso must be an Isometry, got None"),
    "isometry-tuple": (lambda: apply_isometry(CODE, (A, BaseMatrix.identity(F16, 3), 0)),
                       InvalidParameterError, r"iso must be an Isometry, got \(Element"),
    "dual-code-none": (lambda: dual_code(None),
                       InvalidParameterError, "code must be a RankCode, got None"),
    "frobenius-code-none": (lambda: frobenius_code(None, 1),
                            InvalidParameterError, "code must be a RankCode, got None"),
    "is-mrd-none": (lambda: is_mrd(None),
                    InvalidParameterError, "code must be a RankCode, got None"),
    "is-gabidulin-none": (lambda: is_gabidulin(None),
                          InvalidParameterError, "code must be a RankCode, got None"),
    "fullrank-variant-none": (lambda: is_mrd_fullrank_variant(None),
                              InvalidParameterError, "code must be a RankCode, got None"),
    "min-distance-none": (lambda: min_rank_distance(None),
                          InvalidParameterError, "code must be a RankCode, got None"),
    "census-k-equals-n": (lambda: census(2, 2, 2, 3),
                          InvalidParameterError, r"need 1 <= k < n, got k=2, n=2"),
    "census-other-spec": (lambda: census(2, 2, 4, 3, spec=F16),
                          InvalidParameterError, "spec disagrees"),
    # three scanned rows: no MRD block at m = 4 < n, 2^30 visits per orbit
    # at m = 6, and no first-row orbit at all at (2,3,7,4)
    "census-three-rows-m4": (lambda: census(2, 3, 6, 4), InvalidParameterError,
                             r"\(2,3,6,4\) has min\(k, n - k\) = 3 scanned rows"),
    "census-three-rows-m6": (lambda: census(2, 3, 6, 6), InvalidParameterError,
                             "census counts one or two; estimate it with monte_carlo"),
    "census-three-rows-no-orbits": (lambda: census(2, 3, 7, 4), InvalidParameterError,
                                    r"\(2,3,7,4\) has min\(k, n - k\) = 3"),
    "figure-id-4": (lambda: figure_data(4), InvalidParameterError, "figure id must be 1, 2 or 3"),
    "frobenius-code-negative-s": (lambda: frobenius_code(CODE, -1),
                                  InvalidParameterError, "s must be nonnegative, got -1"),
    "evaluate-wrong-length": (lambda: MultilinearPoly(F16, 2, {}).evaluate([1]),
                              ShapeError, "expected 2 values, got 1"),
    "poly-negative-coefficient": (lambda: MultilinearPoly(F16, 1, {(0,): -1}),
                                  InvalidParameterError, "coefficient out of range: -1"),
    "poly-coefficient-99": (lambda: MultilinearPoly(F16, 1, {(0,): 99}),
                            InvalidParameterError, "coefficient out of range: 99"),
    "poly-repeated-variable": (lambda: MultilinearPoly(F16, 1, {(0, 0): 1}),
                               InvalidParameterError, r"monomial \(0, 0\) repeats a variable"),
    "poly-variable-out-of-range": (lambda: MultilinearPoly(F16, 1, {(3,): 1}),
                                   InvalidParameterError, "variable out of range: 3"),
    "poly-coeffs-none": (lambda: MultilinearPoly(F16, 1, None),
                         InvalidParameterError, "coeffs must be a dict, got None"),
    "poly-float-num-vars": (lambda: MultilinearPoly(F16, 1.5, {}),
                            InvalidParameterError, "num_vars must be an integer, got 1.5"),
    "symbolic-not-rref": (
        lambda: symbolic_f_E(BaseMatrix(F16, [[0, 1, 0, 0], [1, 0, 0, 0]])),
        InvalidParameterError, "E must be a full-rank reduced row echelon form"),
    "symbolic-none": (lambda: symbolic_f_E(None),
                      InvalidParameterError, "E must be a BaseMatrix over F_q, got None"),
    "symbolic-ext-matrix": (lambda: symbolic_f_E(EXT_RREF),
                            InvalidParameterError, "E must be a BaseMatrix over F_q"),
    "f-E-degree-none": (lambda: f_E_degree(None),
                        InvalidParameterError, "E must be a BaseMatrix over F_q, got None"),
    "f-E-degree-ext-matrix": (lambda: f_E_degree(EXT_RREF),
                              InvalidParameterError, "E must be a BaseMatrix over F_q"),
    "rank1-none": (lambda: rank1_criterion(None, 1),
                   InvalidParameterError, "X must be an ExtMatrix, got None"),
    "rank-none": (lambda: rank(None),
                  InvalidParameterError, "M must be a BaseMatrix or ExtMatrix, got None"),
    "det-none": (lambda: det(None),
                 InvalidParameterError, "M must be a BaseMatrix or ExtMatrix, got None"),
    "rref-none": (lambda: rref(None),
                  InvalidParameterError, "M must be a BaseMatrix or ExtMatrix, got None"),
    "intersection-none": (lambda: intersection_dim(None, None), InvalidParameterError,
                          "U and W must be a BaseMatrix or ExtMatrix, got None"),
    "intersection-list": (lambda: intersection_dim(BaseMatrix.identity(F16, 2), [[1, 0]]),
                          InvalidParameterError,
                          r"U and W must be a BaseMatrix or ExtMatrix, got \[\[1, 0\]\]"),
    "enumerate-G-k-equals-n": (lambda: enumerate_G(F8, 2, 2, 1),
                               InvalidParameterError, r"need 1 <= k < n, got k=2, n=2"),
    "gaussian-binomial-float-n": (lambda: gaussian_binomial(4.0, 2, 2),
                                  InvalidParameterError, "n must be an integer, got 4.0"),
    "gaussian-binomial-string-k": (lambda: gaussian_binomial(4, "2", 2),
                                   InvalidParameterError, "k must be an integer, got '2'"),
    "intersecting-float-q": (lambda: count_intersecting_subspaces(4, 2, 1, 2.0),
                             InvalidParameterError, "q must be an integer, got 2.0"),
    "intersecting-float-r": (lambda: count_intersecting_subspaces(4, 2, 1.0, 2),
                             InvalidParameterError, "r must be an integer, got 1.0"),
    "monte-carlo-bool-k": (lambda: monte_carlo(2, True, 4, 6, 10, 0),
                           InvalidParameterError, "k must be an integer, got True"),
    "monte-carlo-float-seed": (lambda: monte_carlo(2, 2, 4, 4, 1, seed=1.5),
                               InvalidParameterError, "seed must be an integer, got 1.5"),
    "monte-carlo-str-seed": (lambda: monte_carlo(2, 2, 4, 4, 1, seed="a"),
                             InvalidParameterError, "seed must be an integer, got 'a'"),
    "monte-carlo-bool-seed": (lambda: monte_carlo(2, 2, 4, 4, 1, seed=True),
                              InvalidParameterError, "seed must be an integer, got True"),
    "figure-str-seed": (
        lambda: figure_data(2, q=2, k=2, n=4, m_values=[4], trials=1, seed="x"),
        InvalidParameterError, "seed must be an integer, got 'x'"),
    "gaussian-binomial-bool-q": (lambda: gaussian_binomial(4, 2, True),
                                 InvalidParameterError, "q must be an integer, got True"),
    "field-bool-m": (lambda: FieldSpec(2, 1, True),
                     InvalidParameterError, "m must be an integer, got True"),
    "frobenius-code-bool-s": (lambda: frobenius_code(CODE, False),
                              InvalidParameterError, "s must be an integer, got False"),
    "census-bool-stop-after": (lambda: census(2, 2, 4, 4, stop_after=True),
                               InvalidParameterError, "stop_after must be an integer, got True"),
    "isometry-bool-n": (lambda: random_isometry(F16, True, None),
                        InvalidParameterError, "n must be an integer, got True"),
    "euler-phi-0": (lambda: euler_phi(0), InvalidParameterError, "m must be positive, got 0"),
    "mrd-bound-negative-m": (lambda: mrd_bound(2, 2, 4, -1),
                             InvalidParameterError, "m must be positive, got -1"),
    "gab-bound-m1": (lambda: gab_bound(2, 2, 4, 1),
                     InvalidParameterError, "m must be at least 2"),
    "gab-bound-rough-m1": (lambda: gab_bound_rough(2, 2, 4, 1),
                           InvalidParameterError, "m must be at least 2"),
    "field-e-0": (lambda: FieldSpec(2, 0, 3), InvalidParameterError, "e must be positive, got 0"),
    "fq-list-longer-than-e": (lambda: FieldSpec(2, 2, 2).element_from_coeffs([[1, 0, 1]]),
                              InvalidParameterError, "F_q coefficient list longer than e = 2"),
    "too-many-coefficients": (lambda: F8.element_from_coeffs([1, 0, 0, 1]),
                              InvalidParameterError, "too many coefficients"),
    "matrix-empty": (lambda: ExtMatrix(F8, []), ShapeError, "at least one row"),
    "matrix-ragged": (lambda: BaseMatrix(F8, [[1, 0], [1]]), ShapeError, "ragged rows"),
    "ext-matrix-int-entries": (lambda: ExtMatrix(F16, 5), InvalidParameterError,
                               "entries must be a list or tuple, got 5"),
    "ext-matrix-none-entries": (lambda: ExtMatrix(F16, None), InvalidParameterError,
                                "entries must be a list or tuple, got None"),
    "base-matrix-int-row": (lambda: BaseMatrix(F16, [5]), InvalidParameterError,
                            "a row must be a list or tuple, got 5"),
    "random-element-none-rng": (lambda: random_element(F16, None), InvalidParameterError,
                                "rng must have a randrange method, got None"),
    "random-code-none-rng": (lambda: random_systematic_code(F16, 1, 2, None),
                             InvalidParameterError, "rng must have a randrange method, got None"),
    "random-isometry-none-rng": (lambda: random_isometry(F16, 2, None), InvalidParameterError,
                                 "rng must have a randrange method, got None"),
    "ext-json-dimensions": (dimension_mismatch(ExtMatrix, F8, [[3, 5]]),
                            InvalidParameterError, "dimensions disagree with entries"),
    "base-json-dimensions": (dimension_mismatch(BaseMatrix, F8, [[1, 0]]),
                             InvalidParameterError, "dimensions disagree with entries"),
    "expand-empty": (lambda: expand_to_base([]), InvalidParameterError,
                     "cannot infer the field of a vector that holds no Element"),
    "expand-ints": (lambda: expand_to_base([2, 4]), InvalidParameterError,
                    "cannot infer the field of a vector that holds no Element"),
    "independence-empty": (lambda: linearly_independent_over_base([]),
                           InvalidParameterError, "empty list of elements"),
    "independence-mixed": (lambda: linearly_independent_over_base([A, OTHER]),
                           SpecMismatchError, "mixed field towers"),
    "independence-ints": (lambda: linearly_independent_over_base([2, 4]),
                          InvalidParameterError, "expected a field Element, got 2"),
}
# a non-field where a FieldSpec belongs is refused, not an AttributeError
CASES.update({f"{name}-non-field": (call, InvalidParameterError,
                                    f"spec must be a FieldSpec, got {shown}")
              for name, call, shown in [
    ("enumerate-rref", lambda: enumerate_rref(2, 4, None), None),
    ("sum-f-E-degrees", lambda: sum_f_E_degrees(2, 4, None), None),
    ("enumerate-G", lambda: enumerate_G(None, 1, 2, 1), None),
    ("enumerate-R1K", lambda: enumerate_R1K(None, 1, 2), None),
    ("poly", lambda: MultilinearPoly(None, 1, {(0,): 1}), None),
    ("random-code", lambda: random_systematic_code(None, 1, 2, random.Random(0)), None),
    ("random-isometry", lambda: random_isometry(None, 2, random.Random(0)), None),
    ("census-spec", lambda: census(2, 1, 2, 2, spec=(2, 2)), r"\(2, 2\)"),
    ("trace-kernel", lambda: trace_kernel(None), None),
    ("enumerate-elements", lambda: enumerate_elements(None), None),
    ("random-element", lambda: random_element(None, random.Random(0)), None),
    ("expand-spec", lambda: expand_to_base([1, 2], spec="F16"), "'F16'"),
    ("ext-matrix", lambda: ExtMatrix(None, [[1]]), None),
    ("base-matrix", lambda: BaseMatrix(None, [[1]]), None)]})


@pytest.mark.parametrize("call,exception,match", CASES.values(), ids=CASES.keys())
def test_bad_input_refused(call, exception, match):
    with pytest.raises(exception, match=match):
        call()


VALID_STATE = {"schema_version": 5, "cursor": 1, "mrd_count": 0, "gab_count": 0,
               "per_s": {"1": 0, "3": 0},
               "reduction": {"scanned_k": 2, "orbits": 3, "visits": 192}}
CHECKPOINTS = {
    "empty": ({}, "unsupported checkpoint schema"),
    "cursor-only": ({"cursor": 3}, "unsupported checkpoint schema"),
    "int-reduction-no-schema": ({"cursor": 3, "reduction": 5}, "unsupported checkpoint schema"),
    "visit-cursor-schema": ({**VALID_STATE, "schema_version": 4}, "unsupported checkpoint schema"),
    "list": ([], "is not a JSON object"),
    "str-cursor": ({**VALID_STATE, "cursor": "1"}, "lacks an integer cursor"),
    "no-per_s": ({k: v for k, v in VALID_STATE.items() if k != "per_s"},
                 "lacks an integer cursor"),
    "int-reduction": ({**VALID_STATE, "reduction": 5}, "not within the orbits"),
    "no-orbits": ({**VALID_STATE, "reduction": {"visits": 192}}, "not within the orbits"),
    "cursor-past-orbits": ({**VALID_STATE, "cursor": 4}, "not within the orbits"),
}


@pytest.mark.parametrize("state,match", CHECKPOINTS.values(), ids=CHECKPOINTS.keys())
def test_malformed_checkpoint_progress_refused(tmp_path, state, match):
    # census_progress reads its file through the checks a resume makes
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    with pytest.raises(InvalidParameterError, match=match):
        census_progress(str(path))
    path.write_text(json.dumps(VALID_STATE))
    assert census_progress(str(path)) == (1, 3)
