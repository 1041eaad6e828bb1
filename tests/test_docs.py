import inspect
import re
from pathlib import Path

import zonal
from zonal import asymptotics, harness, quadrature, quadric, special

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quick_start_runs():
    # a name the quick start imports or calls and the package no longer has fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})


def test_every_public_name_has_a_reader():
    # a name stays public only when another layer, an acceptance criterion, the
    # README, the benchmark or a public function's return annotation reads it;
    # its own module and its unit tests do not count
    layers = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "zonal").glob("*.py")}
    outside = [README.read_text(encoding="utf-8"), (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    outside += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").rglob("*")) if p.suffix in (".py", ".md")]
    outside += [str(inspect.signature(obj).return_annotation) for name in zonal.__all__
                if inspect.isfunction(obj := getattr(zonal, name))]
    unread = []
    for name in zonal.__all__:
        if name == "__version__":
            continue
        module = next(m for m in (special, asymptotics, quadrature, quadric, harness) if name in m.__all__)
        own = module.__name__.rsplit(".", 1)[1]
        texts = outside + [text for stem, text in layers.items() if stem != own]
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unread.append(f"{own}.{name}")
    assert not unread, unread
