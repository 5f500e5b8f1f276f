"""Every field of TrainConfig and ModelConfig is read by the code it
configures, not only by config.py's parsing and validation.  A value that
no caller varies is a constant beside the code that reads it, so the keys
are pinned here: a new one shows up as an edit of this file."""

import ast
from dataclasses import fields
from pathlib import Path

from uspc import config as config_mod
from uspc.config import ModelConfig, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
# config.py's functions that parse, print or check the fields without using them
PARSING = {"validate", "to_text", "_coerce", "from_text", "load_config"}


def unread_fields(names: list[str], sources: dict[str, str]) -> list[str]:
    """The `names` that no attribute load in `sources` (module name ->
    source) reads, other than a call's function or a load inside the
    PARSING functions of module `config`."""
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        skipped = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        if module == "config":
            skipped |= {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, ast.FunctionDef) and fn.name in PARSING
                        for node in ast.walk(fn)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in skipped}
    return [name for name in names if name not in read]


def test_finds_a_field_only_parsing_reads():
    sources = {"config": "class C:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n\n"
                         "    def validate(self):\n        return self.a + self.b\n\n"
                         "    def half(self):\n        return self.c / 2\n",
               "use": "def f(cfg, ad):\n    cfg.a = ad.a()\n    return cfg.b\n"}
    assert unread_fields(["a", "b", "c", "d"], sources) == ["a", "d"]


def test_every_config_field_is_read_in_src():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src/uspc").glob("*.py"))}
    names = [f.name for cls in (TrainConfig, ModelConfig) for f in fields(cls)]
    assert unread_fields(names, sources) == []


def test_train_config_has_seventeen_keys():
    keys = [line.partition(" = ")[0]
            for line in config_mod.to_text(TrainConfig()).splitlines()]
    assert keys == ["seed", "mode", "lr_decay_per_epoch", "batch_paired", "batch_unpaired",
                    "max_steps", "w_pitch", "w_pair", "dead_code_steps", "plateau_epochs",
                    "model.d_model", "model.n_heads", "model.text_blocks",
                    "model.content_blocks", "model.decoder_blocks", "model.dropout",
                    "model.codebook_size"]
