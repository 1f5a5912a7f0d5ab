"""Loading the bundled .cat model files."""

from __future__ import annotations

from functools import cache
from pathlib import Path

from .ast import Model
from .eval import CatModel
from .parser import parse

MODELS_DIR = Path(__file__).parent / "models"

_TRANSACTIONAL = {"tsc", "x86tm", "powertm", "armv8tm", "cpptm"}


def available_cat_models() -> list[str]:
    """Names of the bundled .cat files (without extension)."""
    return sorted(p.stem for p in MODELS_DIR.glob("*.cat"))


@cache
def _parse_bundled(name: str) -> Model:
    """The parsed AST of a bundled model, read once per process.

    The bundled files ship with the package and do not change while it
    runs; the AST is immutable, so every ``CatModel`` may share it.
    """
    return parse((MODELS_DIR / f"{name}.cat").read_text())


def load_cat_model(name: str) -> CatModel:
    """A runnable :class:`CatModel` for a bundled model file."""
    path = MODELS_DIR / f"{name}.cat"
    if not path.exists():
        raise KeyError(
            f"no bundled cat model {name!r}; available: "
            f"{', '.join(available_cat_models())}"
        )
    return CatModel(_parse_bundled(name), transactional=name in _TRANSACTIONAL)


def load_cat_file(path: str | Path) -> CatModel:
    """Parse an arbitrary .cat file (read afresh on every call)."""
    return CatModel(parse(Path(path).read_text()))
