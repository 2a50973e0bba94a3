"""Build the program from source, refuse builds unfit for timing, and
describe the host and build every result was measured on."""

import os
import subprocess

BUILD_DIR = os.path.join(".bench_build", "cmake")
MOMSIM = os.path.join(BUILD_DIR, "momsim", "momsim")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")
LOG = os.path.join(".bench_build", "build.log")


class BuildError(RuntimeError):
    pass


def build():
    """Configure (once) and build momsim and perfbench_tool, Release."""
    if not os.path.isfile(os.path.join("src", "svc", "momsim_main.cc")):
        raise BuildError("no momsim sources here; run from a checkout root")
    os.makedirs(".bench_build", exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "momsim",
                  "perfbench_tool", "-j", str(min(4, os.cpu_count() or 1))])
    with open(LOG, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log,
                               timeout=850) != 0:
                raise BuildError("%s failed; see %s" % (cmd[:2], LOG))


def cache_vars(build_dir=BUILD_DIR):
    """CMakeCache.txt entries as name -> value."""
    out = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            out[key.split(":", 1)[0]] = value
    return out


def guard(cache):
    """Raise BuildError unless the build is Release without sanitizers."""
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BuildError("refusing to time a %r build; want Release"
                         % cache.get("CMAKE_BUILD_TYPE"))
    if cache.get("MOMSIM_SANITIZE"):
        raise BuildError("refusing to time a build with MOMSIM_SANITIZE=%s"
                         % cache["MOMSIM_SANITIZE"])


def _first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0].strip() if out.stdout else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(cache):
    head = "none (not a git checkout)"
    if os.path.exists(".git"):
        head = _first_line(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "compiler": _first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                 "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "sanitize": cache.get("MOMSIM_SANITIZE", ""),
        "git_head": head,
    }
