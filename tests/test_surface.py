"""The package's public surface holds only what is used.

A public top-level function or class, or a public method of a public class,
that no other code in ``src/spoofbench`` names is API that nothing calls.
Each such name must be listed below with the reason it stays; a new one
fails this test until it is either used, deleted or listed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spoofbench"

UNREFERENCED_BY_DESIGN = {
    "cli.cmd_vad": "a command, reached through click",
    "cli.cmd_present": "a command, reached through click",
    "cli.cmd_pool": "a command, reached through click",
    "cli.cmd_detect": "a command, reached through click",
    "cli.cmd_eval": "a command, reached through click",
    "cli.cmd_det": "a command, reached through click",
    "cli.cmd_init_weights": "a command, reached through click",
    "detector.model.init_aggregator_parameters": "the layer aggregator, a capability of acceptance criterion 5",
    "detector.ops.aggregate_layers": "the layer aggregator, a capability of acceptance criterion 5",
    "presentation.convolutive_distortion": "a channel distortion of acceptance criterion 6",
    "presentation.impulsive_noise": "a channel distortion of acceptance criterion 6",
    "metrics.ScoreTable.rows": "hides the column encoding: NaN for no checkpoint, is_spoof for the label",
    "features.LogMelSpectrogram.n_frames": "benchmarks/tracer.py reads a forward's frame count with it",
    "audio.AudioClip.duration_s": "acceptance criterion 7 reads a prefix's length in seconds with it",
}


def unreferenced_public_names():
    """Dotted names, relative to the package, of the public definitions no other src/ code names.

    A top-level function or class counts as named by a bare name or an attribute
    (module.function); a method only by an attribute, since a bare name of the
    same spelling is some other variable.  Uses inside a definition's own body
    do not count."""
    definitions, bare, attributes = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((f"{module}.{node.name}", node, False))
                methods = node.body if isinstance(node, ast.ClassDef) else []
                definitions += [(f"{module}.{node.name}.{item.name}", item, True) for item in methods
                                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, node))
    unreferenced = set()
    for name, node, is_method in definitions:
        own = {id(n) for n in ast.walk(node)}
        uses = attributes if is_method else bare + attributes
        if not any(used == node.name and id(n) not in own for used, n in uses):
            unreferenced.add(name)
    return unreferenced


def test_every_unreferenced_public_name_is_listed_with_its_reason():
    assert unreferenced_public_names() == set(UNREFERENCED_BY_DESIGN)
