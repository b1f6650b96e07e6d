"""Seeded random code models for the writer tests and ``tests/fuzz_writers.py``.

``random_model`` builds models shaped like discovery's, with injected
"newCall" elements; ``awkward_model`` builds the shapes discovery never
makes, with names that need every escape the writers know.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from jspkdm import BlockUnit, ClassUnit, CodeElement, CodeRelationship, KdmModel, MethodUnit


def random_model(rng: random.Random) -> KdmModel:
    classes = []
    for i in range(rng.randint(0, 5)):
        methods = []
        for name in ("_jspInit", "_jspService", "_jspDestroy"):
            if name == "_jspService" or rng.random() < 0.8:
                elements = [
                    CodeElement(name=rng.choice(["TemplateEmit", "InlineCode"]),
                                kind="TemplateEmit",
                                origin_span=(j, j + rng.randint(1, 9)))
                    for j in range(rng.randint(0, 4))
                ]
                methods.append(MethodUnit(name, BlockUnit(elements)))
        classes.append(ClassUnit(
            name=f"cls{i}",
            source_page=f"/p{i}.jsp" if rng.random() < 0.8 else None,
            code_elements=methods))
    model = KdmModel(name="rand", class_units=classes)
    if classes:
        for _ in range(rng.randint(0, 6)):
            a, b = rng.choice(classes), rng.choice(classes)
            kind = rng.choice(["a-href", "form", "jsp:include", "call"])
            if any(r.from_class is a and r.to_class is b and r.kind == kind
                   for r in model.relationships):
                continue
            rel = CodeRelationship(a, b, kind)
            model.relationships.append(rel)
            service = a.method("_jspService")
            if service is not None:
                service.block.elements.append(
                    CodeElement(name="newCall", kind="Call", relationships=(rel,)))
    return model


# Quotes, backslashes, control characters, non-ASCII text, U+2028 and a lone
# surrogate: every escape the stdlib's ASCII string encoder makes.
AWKWARD_TEXT = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "漢",
                "\u2028", "\ud800", "\U0001f600", "/", "a", "jsp"]


def awkward_name(rng: random.Random) -> str:
    return "".join(rng.choice(AWKWARD_TEXT) for _ in range(rng.randint(0, 6)))


def awkward_model(rng: random.Random) -> KdmModel:
    """A hand-built model that discovery never makes: no classes, empty
    methods and element lists, missing pages and spans, and elements holding
    several relationships, all with awkward names."""
    classes = [
        ClassUnit(
            name=awkward_name(rng),
            source_page=awkward_name(rng) if rng.random() < 0.7 else None,
            code_elements=[
                MethodUnit(awkward_name(rng), BlockUnit([
                    CodeElement(awkward_name(rng), awkward_name(rng),
                                origin_span=(rng.randint(0, 10**6), rng.randint(0, 10**6))
                                if rng.random() < 0.6 else None)
                    for _ in range(rng.randint(0, 3))]))
                for _ in range(rng.randint(0, 3))])
        for _ in range(rng.randint(0, 4))]
    model = KdmModel(name=awkward_name(rng), class_units=classes)
    if classes:
        model.relationships = [
            CodeRelationship(rng.choice(classes), rng.choice(classes), awkward_name(rng))
            for _ in range(rng.randint(1, 5))]
        for element in (e for c in classes for m in c.code_elements for e in m.block.elements):
            element.relationships = tuple(rng.choices(model.relationships,
                                                      k=rng.randint(0, 4)))
    return model


def mixed_models(count: int, seed: int) -> Iterator[KdmModel]:
    """``count`` seeded models, about three in four of them awkward."""
    rng = random.Random(seed)
    for _ in range(count):
        yield awkward_model(rng) if rng.random() < 0.75 else random_model(rng)
