"""The declared numeric platform that pinned digests are taken on.

OpenBLAS (built with DYNAMIC_ARCH) picks its kernels by CPU, and numpy picks
its SIMD loops by CPU; either choice moves trained bits.  So a pinned digest
is computed in a child process on the x86-64-v3 path, which any AVX2 host can
run: OpenBLAS's Haswell kernels (`OPENBLAS_CORETYPE`) and numpy with its
X86_V4 and AVX-512 dispatch targets turned off (`NPY_DISABLE_CPU_FEATURES`).
Only the child's environment changes.  A host that cannot run that path fails
the pinned tests, naming its platform; they never skip.
"""
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def child_env(**overrides) -> dict:
    """This process's environment, with src/ and tests/ importable."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]), **overrides)


def baseline_env() -> dict:
    """`child_env` on the declared baseline."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    machine = platform.machine()
    if machine.lower() not in ("x86_64", "amd64") or not umath.__cpu_features__.get("AVX2"):
        pytest.fail(f"pinned digests are taken on x86-64 with AVX2 (OpenBLAS Haswell); this "
                    f"host is {machine}, numpy dispatch {umath.__cpu_dispatch__}, AVX2 "
                    f"{umath.__cpu_features__.get('AVX2', False)}")
    off = [t for t in umath.__cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
    return child_env(OPENBLAS_CORETYPE="Haswell", NPY_DISABLE_CPU_FEATURES=" ".join(off))


def run_child(module: str, function: str, env: dict):
    """`module.function()` run in a child Python with `env`; its result as JSON."""
    code = f"import json, {module}; print(json.dumps({module}.{function}()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])
