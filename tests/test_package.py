"""The package's public names load on first use: `import outwalk` loads
no layer, and each name is its defining module's object."""

import os
import subprocess
import sys

import outwalk

# module -> the public names it defines
PUBLIC = {
    "free_group": ["CyclicWord", "Word", "WordBudgetExceeded", "cyclic_reduce", "parse_word",
                   "reduce", "word_to_str"],
    "automorphisms": ["Automorphism", "InverseCheckError", "abelianization", "apply", "compose",
                      "cyclic_images", "identity_automorphism", "invert", "parse_automorphism"],
    "outer_metric": ["candidates", "dist", "log_stretch", "sym_dist"],
    "spectral": ["StretchBracket", "bracket", "stretch_lower", "stretch_ratio"],
    "matrix_oracle": ["BitBudgetExceeded", "IntMatrix", "MatrixBracket", "log_norm",
                      "spectral_radius"],
    "walk_engine": ["EstimateSeries", "ProbMeasure", "WalkPath", "furstenberg_experiment",
                    "guivarch_experiment", "sample_path"],
    "word_walks": ["conjugacy_growth_experiment", "drift_experiment", "gromov_decay_experiment",
                   "spectral_experiment"],
}

PUBLIC_NAMES = """
import sys
from importlib import import_module

import outwalk

# printed first: the submodules that `import outwalk` loaded
print(" ".join(sorted(m for m in sys.modules if m.startswith("outwalk."))))
public = {public!r}
assert sorted(outwalk.__all__) == sorted(n for names in public.values() for n in names)
for module, names in public.items():
    defining = import_module("outwalk." + module)
    for name in names:
        assert getattr(outwalk, name) is getattr(defining, name), name
star = {{}}
exec("from outwalk import *", star)
assert all(star[name] is getattr(outwalk, name) for name in outwalk.__all__)
assert set(outwalk.__all__) <= set(dir(outwalk))
try:
    outwalk.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_public_names_load_on_first_use():
    # `import outwalk` compiled and imported every layer, the word layer
    # included, before `from outwalk import cli` could load only its own
    src = os.path.dirname(os.path.dirname(outwalk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", PUBLIC_NAMES.format(public=PUBLIC)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", "ok"]
