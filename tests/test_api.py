"""The package's public names, and which commands load numpy.

Only ``uq verify`` and the ``uqnumeric`` functions need numpy.  The
package resolves ``uqnumeric`` and its re-exports on first access, so a
fresh interpreter running the symbolic commands never imports it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionring
from fusionring import uqnumeric
from fusionring.rings import character_ring, dump_ring_json

SRC = Path(__file__).resolve().parents[1] / "src"

NUMERIC = [
    "RESIDUAL_TOL", "RepMatrices", "SV_GAP", "build_pi", "build_u", "check_star",
    "full_verification", "fusion_crosscheck", "intertwiner_space", "q_int", "tensor_rep",
    "unitarizability_witness", "verify_conjugate_equations", "verify_permutation_intertwiner",
]

PUBLIC = [
    "AuProvider", "AxiomReport", "AxiomViolation", "BadParameter", "Budget", "ChainProbeReport",
    "ComponentReport", "ConnectednessReport", "Decomposition", "DimensionIdealReport",
    "DirectProductProvider", "FiniteGroupProvider", "FiniteTableProvider", "FreeProductProvider",
    "FusionError", "FusionProvider", "IllConditioned", "IntegerLattice", "InvalidRing", "IrrLabel",
    "NSequenceReport", "NormalityViolation", "NotAGroup", "NotFinite", "NotSaturated", "ParseError",
    "RESIDUAL_TOL", "RepMatrices", "SO3Provider", "SU2Provider", "SV_GAP", "Subcategory",
    "TorsionScanReport", "TorsionVerdict", "UnknownLabel", "UnsupportedProvider", "UqSU11Provider",
    "WordGroupProvider", "WordGroupSpec", "ascending_chain_probe", "au_ring",
    "axioms", "build_pi", "build_u", "builtin_finite_rings", "canonical_key", "canonical_sort",
    "central_closure", "character_ring", "check_axioms", "check_star", "components",
    "connectedness_probe", "core", "dimension_ideal_recover", "direct_product", "dump_ring_json",
    "enumerate_saturated_subrings", "errors", "finite_group_ring", "free_product",
    "full_verification", "fusion_crosscheck", "generated_subring", "identity_component_report",
    "intertwiner_space", "is_torsion", "lattice", "load_ring_json", "n_sequence_cocommutative",
    "normal_forcing_closure", "normality_consistency", "q_int", "restriction_hom_dim", "rings",
    "so3_ring", "suq2_ring", "tensor_rep", "torsion", "torsion_subcategory",
    "unitarizability_witness", "uq_su11_ring", "uqnumeric", "verify_conjugate_equations",
    "verify_permutation_intertwiner", "word_group",
]


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_all_is_the_frozen_public_surface():
    assert len(PUBLIC) == 86
    assert fusionring.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(fusionring, name)


def test_numeric_names_are_the_uqnumeric_objects():
    assert set(NUMERIC) < set(PUBLIC)
    for name in NUMERIC:
        assert getattr(fusionring, name) is getattr(uqnumeric, name), name
    assert fusionring.uqnumeric is uqnumeric


def test_unknown_attribute_names_the_module_and_the_attribute():
    with pytest.raises(AttributeError, match="^module 'fusionring' has no attribute 'no_such_name'$"):
        fusionring.no_such_name


FRESH_SURFACE = """
import json, sys
import fusionring
listed = sorted(set(fusionring.__all__) - set(dir(fusionring)))
loaded_by_dir = "numpy" in sys.modules
namespace = {}
exec("from fusionring import *", namespace)
import fusionring.uqnumeric as uqnumeric
lazy = sys.argv[1:]
print(json.dumps({
    "unlisted": listed,
    "loaded_by_dir": loaded_by_dir,
    "unbound": sorted(set(fusionring.__all__) - namespace.keys()),
    "not_same": [n for n in lazy if namespace[n] is not getattr(uqnumeric, n)],
    "submodule": namespace["uqnumeric"] is uqnumeric,
}))
"""


def test_star_import_and_dir_list_every_name_in_a_fresh_interpreter():
    out = run_fresh(FRESH_SURFACE, *NUMERIC)
    assert out == {"unlisted": [], "loaded_by_dir": False, "unbound": [], "not_same": [], "submodule": True}


COLD_START = """
import contextlib, io, json, sys
import fusionring, fusionring.cli
from fusionring.cli import main

symbolic = [
    ["decompose", "--ring", "suq2", "u3", "u1"],
    ["closure", "--ring", "uqsu11", "--generators", "u-0", "--kind", "generated"],
    ["torsion", "--ring", "uqsu11", "--budget", "max_irreducibles=12"],
    ["dimideal", "--ring", "json:" + sys.argv[1], "--json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in symbolic]
    symbolic_numpy = "numpy" in sys.modules
    uq = main(["uq", "verify", "--q", "-1/2", "--nmax", "1"])
print(json.dumps({"codes": codes, "symbolic_numpy": symbolic_numpy, "uq": uq,
                  "uq_numpy": "numpy" in sys.modules}))
"""


def test_only_uq_verify_loads_numpy(fixtures_dir, tmp_path):
    path = tmp_path / "s3_table.json"
    dump_ring_json(character_ring(fixtures_dir / "s3_characters.json"), path)
    out = run_fresh(COLD_START, str(path))
    assert out == {"codes": [0, 0, 0, 0], "symbolic_numpy": False, "uq": 0, "uq_numpy": True}
