"""Differential check of both model writers against their references. The
JSON document must be the bytes of ``json.dumps(model_to_dict(model),
indent=2)`` plus a newline, and the XMI document the bytes of
``oracles.model_to_xmi``. An XMI document that holds a lone surrogate has no
UTF-8 form: there both the writer and the reference must raise
``UnicodeEncodeError``. The models come from ``genmodel.mixed_models``,
about three in four of them awkward.

The tier-1 suite checks each writer on 400 such models. This check needs
only the standard library, so it also runs as a script under any supported
Python::

    PYTHONPATH=src python -m tests.fuzz_writers --models 100000 --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

from jspkdm import KdmModel, serialize_model

from .genmodel import mixed_models
from .oracles import model_to_dict, model_to_xmi

REFERENCES = {
    "json": lambda model: (json.dumps(model_to_dict(model), indent=2) + "\n").encode(),
    "xmi": lambda model: model_to_xmi(model).encode(),
}


def _outcome(write, *args) -> bytes | type[UnicodeEncodeError]:
    try:
        return write(*args)
    except UnicodeEncodeError:
        return UnicodeEncodeError


def disagreements(models: Iterable[KdmModel]) -> tuple[list[tuple[str, KdmModel]], int]:
    """The (format, model) pairs where a writer and its reference differ,
    and the number of models compared."""
    bad, count = [], 0
    for model in models:
        count += 1
        for fmt, reference in REFERENCES.items():
            if _outcome(serialize_model, model, fmt) != _outcome(reference, model):
                bad.append((fmt, model))
    return bad, count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad, count = disagreements(mixed_models(args.models, args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad)} disagreements in {count} models "
          f"(seed {args.seed}) written in both formats, against the references")
    for fmt, model in bad[:10]:
        print(fmt, repr(model_to_dict(model))[:500])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
