#!/usr/bin/env python3
"""momlint — momsim's repo-specific determinism linter.

The repo's tests pin byte-identical output (result rows, service
responses, ping/pong lines), so whole bug classes that are "style" in
other codebases are correctness bugs here. momlint encodes the ones a
generic linter cannot know about:

  unordered-iter   Iterating an unordered container (range-for or
                   .begin()) in a serialization/emit/response path.
                   Hash order is libstdc++-version- and seed-dependent;
                   anything emitted from it is a nondeterministic byte.

  float-format     A floating-point printf conversion other than the
                   canonical %.17g (exactNum) in an emit path. %.17g is
                   the shortest format that round-trips every double;
                   anything else silently quantizes stored results.

  nondet-source    Wall clocks, rand()/srand(), or random_device inside
                   the simulator core (src/cpu, src/mem, src/core).
                   Simulation state must be a pure function of the
                   request (seeds come from SplitMix64 on the point id).

  schema-lock      The serialized field list of ResultRow / the service
                   protocol / the serve ping changed without a
                   schemaVersion bump. Field lists are fingerprinted in
                   tests/schema.lock; regenerate with
                   --update-schema-lock *after* bumping the version
                   constant.

Waivers: a finding is suppressed by a comment on the same line as the
flagged construct, or in the comment block directly above it:

    // momlint: allow(<rule>) <reason>

The reason is required — a waiver documents why the site is safe.

Exit status: 0 clean, 1 findings, 2 usage or internal error.
"""

import argparse
import hashlib
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --------------------------------------------------------------------------
# Path sets
# --------------------------------------------------------------------------

# Serialization/emit/response paths: everything whose output a client or
# a stored file sees. CLI entry points (*_main.cc) are excluded — their
# printf tables are human-facing reports, not wire or store bytes.
EMIT_DIRS = ("src/svc",)
EMIT_FILES = (
    "src/driver/result_store.cc",
    "src/driver/result_store.hh",
    "src/driver/result_sink.cc",
    "src/driver/result_sink.hh",
)

# The simulator core: state evolution must be a pure function of the
# request, so no ambient entropy of any kind.
CORE_DIRS = ("src/cpu", "src/mem", "src/core")

CXX_EXTS = (".cc", ".hh")


def is_emit_path(rel):
    if os.path.basename(rel).endswith("_main.cc"):
        return False
    if rel in EMIT_FILES:
        return True
    return any(rel.startswith(d + "/") for d in EMIT_DIRS)


def is_core_path(rel):
    return any(rel.startswith(d + "/") for d in CORE_DIRS)


def cxx_files(root, rel_filter):
    out = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if not name.endswith(CXX_EXTS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            rel = rel.replace(os.sep, "/")
            if rel_filter(rel):
                out.append(rel)
    return sorted(out)


# --------------------------------------------------------------------------
# Source model: lines, waivers, comment stripping
# --------------------------------------------------------------------------

WAIVER_RE = re.compile(r"//\s*momlint:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")


class Source:
    """One C++ file: raw lines, waiver map, comment-stripped lines.

    Waivers are collected from the raw text (they live in comments),
    then comments are stripped so rule regexes never fire on prose
    like "CSV %.6g" in a doc block.
    """

    def __init__(self, path, text):
        self.path = path
        self.lines = text.split("\n")
        # waivers[line] = set of rule names waived on that line
        self.waivers = {}
        for i, line in enumerate(self.lines, 1):
            m = WAIVER_RE.search(line)
            if not m:
                continue
            rule, reason = m.group(1), m.group(2)
            if not reason:
                # A reasonless waiver is itself a finding (reported by
                # the caller); record it with a sentinel rule name.
                self.waivers.setdefault(i, set()).add("!no-reason:" + rule)
                continue
            self.waivers.setdefault(i, set()).add(rule)
        self.code = strip_comments(text).split("\n")
        # A waiver on a pure-comment line also covers the next line
        # that carries code — so multi-line waiver comments work.
        for i in sorted(self.waivers):
            if self.code[i - 1].strip():
                continue
            for j in range(i, len(self.code)):
                if self.code[j].strip():
                    self.waivers.setdefault(j + 1, set()).update(
                        self.waivers[i])
                    break

    def waived(self, rule, line):
        return rule in self.waivers.get(line, ())

    def reasonless(self):
        out = []
        for line, rules in sorted(self.waivers.items()):
            for r in sorted(rules):
                if r.startswith("!no-reason:"):
                    out.append((line, r.split(":", 1)[1]))
        return out


def strip_comments(text):
    """Remove // and /* */ comments, preserving line structure and
    string literals (a quoted "//" is not a comment)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------------
# Rule: unordered-iter
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")


def unordered_names(code_text):
    """Names of variables declared with an unordered container type in
    this file (template args bracket-matched, references included)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code_text):
        i = code_text.index("<", m.start())
        depth = 0
        while i < len(code_text):
            if code_text[i] == "<":
                depth += 1
            elif code_text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            continue
        tail = code_text[i + 1:i + 200]
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def rule_unordered_iter(src):
    findings = []
    names = unordered_names("\n".join(src.code))
    if not names:
        return findings
    alt = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(r"for\s*\([^;()]*:\s*[&*]?\s*(%s)\b" % alt)
    begin = re.compile(r"\b(%s)\s*(?:\.|->)\s*c?begin\s*\(" % alt)
    for i, line in enumerate(src.code, 1):
        for rex, what in ((range_for, "range-for over"),
                          (begin, ".begin() on")):
            m = rex.search(line)
            if m and not src.waived("unordered-iter", i):
                findings.append(Finding(
                    "unordered-iter", src.path, i,
                    "%s unordered container \"%s\" in an emit path; "
                    "hash order is not deterministic — iterate a sorted "
                    "key list instead" % (what, m.group(1))))
    return findings


# --------------------------------------------------------------------------
# Rule: float-format
# --------------------------------------------------------------------------

FLOAT_FMT_RE = re.compile(r"%[-+ #0-9.*']*[eEfgG]")
CANONICAL = "%.17g"


def rule_float_format(src):
    findings = []
    for i, line in enumerate(src.code, 1):
        if '"' not in line:
            continue
        for m in FLOAT_FMT_RE.finditer(line):
            if m.group(0) == CANONICAL:
                continue
            if src.waived("float-format", i):
                continue
            findings.append(Finding(
                "float-format", src.path, i,
                "float format \"%s\" in an emit path; only the "
                "canonical %s (exactNum) round-trips doubles "
                "byte-exactly" % (m.group(0), CANONICAL)))
    return findings


# --------------------------------------------------------------------------
# Rule: nondet-source
# --------------------------------------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"\b(?:steady|system|high_resolution)_clock\b"),
     "wall-clock read"),
    (re.compile(r"\bgettimeofday\s*\("), "wall-clock read"),
    (re.compile(r"\bclock_gettime\s*\("), "wall-clock read"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock read"),
    (re.compile(r"\bs?rand\s*\("), "libc PRNG"),
    (re.compile(r"\brandom_device\b"), "hardware entropy source"),
)


def rule_nondet_source(src):
    findings = []
    for i, line in enumerate(src.code, 1):
        for rex, what in NONDET_PATTERNS:
            m = rex.search(line)
            if m and not src.waived("nondet-source", i):
                findings.append(Finding(
                    "nondet-source", src.path, i,
                    "%s (\"%s\") in the simulator core; results must be "
                    "a pure function of the request — derive entropy "
                    "from the point seed" % (what, m.group(0).strip())))
    return findings


# --------------------------------------------------------------------------
# Rule: schema-lock
# --------------------------------------------------------------------------

# Each unit pairs the source file whose string literals define the
# serialized field names with the header holding its version constant.
SCHEMA_UNITS = (
    ("result_row", "src/driver/result_store.cc",
     "src/driver/result_store.hh", "kResultSchemaVersion"),
    ("sim_request", "src/svc/sim_request.cc",
     "src/svc/sim_request.hh", "kSimRequestSchemaVersion"),
    ("sim_response", "src/svc/sim_response.cc",
     "src/svc/sim_response.hh", "kSimResponseSchemaVersion"),
    ("serve_ping", "src/svc/ping.cc",
     "src/svc/ping.hh", "kPingSchemaVersion"),
)

# A serialized field name as it appears in C++ source: \"name\":
FIELD_RE = re.compile(r'\\"([A-Za-z_]\w*)\\":')
LOCK_LINE_RE = re.compile(
    r"^(\w+)\s+version=(\d+)\s+sha256=([0-9a-f]{12})\s+fields=(\S+)$")


def schema_snapshot(root, units=SCHEMA_UNITS):
    """Compute (unit, version, digest, fields) for every schema unit."""
    snap = []
    for unit, cc, hh, const in units:
        cc_text = read_file(os.path.join(root, cc))
        hh_text = read_file(os.path.join(root, hh))
        vm = re.search(
            r"constexpr\s+int\s+%s\s*=\s*(\d+)" % re.escape(const), hh_text)
        if not vm:
            raise LintError("%s: version constant %s not found" % (hh, const))
        fields = sorted(set(FIELD_RE.findall(cc_text)))
        if not fields:
            raise LintError("%s: no serialized fields found" % cc)
        version = int(vm.group(1))
        digest = hashlib.sha256(
            ("%d:%s" % (version, ",".join(fields))).encode()).hexdigest()[:12]
        snap.append((unit, version, digest, fields))
    return snap


def render_lock(snap):
    out = ["# momsim schema lock — generated by tools/momlint.py",
           "# After bumping a schemaVersion constant, regenerate with:",
           "#   tools/momlint.py --update-schema-lock"]
    for unit, version, digest, fields in snap:
        out.append("%s version=%d sha256=%s fields=%s"
                   % (unit, version, digest, ",".join(fields)))
    return "\n".join(out) + "\n"


def parse_lock(text, path):
    locked = {}
    for i, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = LOCK_LINE_RE.match(line)
        if not m:
            raise LintError("%s:%d: unparseable lock line" % (path, i))
        locked[m.group(1)] = (int(m.group(2)), m.group(3),
                              m.group(4).split(","))
    return locked


def rule_schema_lock(root, lock_path, units=SCHEMA_UNITS):
    findings = []
    snap = schema_snapshot(root, units)
    full = os.path.join(root, lock_path)
    if not os.path.exists(full):
        findings.append(Finding(
            "schema-lock", lock_path, 1,
            "missing; run tools/momlint.py --update-schema-lock"))
        return findings
    locked = parse_lock(read_file(full), lock_path)
    for unit, version, digest, fields in snap:
        if unit not in locked:
            findings.append(Finding(
                "schema-lock", lock_path, 1,
                "unit \"%s\" not in lock; run --update-schema-lock"
                % unit))
            continue
        lver, _ldig, lfields = locked[unit]
        if fields != lfields and version == lver:
            added = sorted(set(fields) - set(lfields))
            removed = sorted(set(lfields) - set(fields))
            delta = []
            if added:
                delta.append("added: " + ", ".join(added))
            if removed:
                delta.append("removed: " + ", ".join(removed))
            findings.append(Finding(
                "schema-lock", lock_path, 1,
                "unit \"%s\" serialized fields changed (%s) without a "
                "schemaVersion bump; old readers would misparse the new "
                "bytes — bump the version constant, then run "
                "--update-schema-lock" % (unit, "; ".join(delta))))
        elif version != lver:
            findings.append(Finding(
                "schema-lock", lock_path, 1,
                "unit \"%s\" is version %d but the lock records %d; "
                "run --update-schema-lock to re-fingerprint"
                % (unit, version, lver)))
    for unit in sorted(set(locked) - {u for u, _v, _d, _f in snap}):
        findings.append(Finding(
            "schema-lock", lock_path, 1,
            "unit \"%s\" in lock no longer exists; run "
            "--update-schema-lock" % unit))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

class LintError(Exception):
    pass


def read_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def load_source(root, rel):
    return Source(rel, read_file(os.path.join(root, rel)))


def lint_repo(root):
    findings = []
    sources = {}

    def source(rel):
        if rel not in sources:
            sources[rel] = load_source(root, rel)
        return sources[rel]

    for rel in cxx_files(root, is_emit_path):
        src = source(rel)
        findings += rule_unordered_iter(src)
        findings += rule_float_format(src)
    for rel in cxx_files(root, is_core_path):
        findings += rule_nondet_source(source(rel))
    findings += rule_schema_lock(root, "tests/schema.lock")

    for src in sources.values():
        for line, rule in src.reasonless():
            findings.append(Finding(
                rule, src.path, line,
                "waiver without a reason; write "
                "\"// momlint: allow(%s) <why this site is safe>\""
                % rule))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------------------
# Selftest over tests/lint_fixtures/
# --------------------------------------------------------------------------

RULE_FNS = {
    "unordered_iter": rule_unordered_iter,
    "float_format": rule_float_format,
    "nondet_source": rule_nondet_source,
}


def selftest(root):
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    failures = []
    checked = 0

    for stem, fn in sorted(RULE_FNS.items()):
        rule = stem.replace("_", "-")
        for kind, want_hits in (("flag", True), ("pass", False)):
            rel = "tests/lint_fixtures/%s_%s.cc" % (stem, kind)
            path = os.path.join(root, rel)
            if not os.path.exists(path):
                failures.append("%s: fixture missing" % rel)
                continue
            checked += 1
            got = [f for f in fn(Source(rel, read_file(path)))
                   if f.rule == rule]
            if want_hits and not got:
                failures.append("%s: expected >=1 %s finding, got none"
                                % (rel, rule))
            elif not want_hits and got:
                failures.append("%s: expected no %s findings, got:\n  %s"
                                % (rel, rule,
                                   "\n  ".join(str(f) for f in got)))

    mini_units = (("mini", "mini.cc", "mini.hh", "kMiniSchemaVersion"),)
    for kind, want_hits in (("flag", True), ("pass", False)):
        rel = "tests/lint_fixtures/schema_%s" % kind
        fxroot = os.path.join(fixtures, "schema_%s" % kind)
        if not os.path.isdir(fxroot):
            failures.append("%s/: fixture dir missing" % rel)
            continue
        checked += 1
        got = rule_schema_lock(fxroot, "schema.lock", mini_units)
        if want_hits and not got:
            failures.append("%s/: expected a schema-lock finding, got none"
                            % rel)
        elif not want_hits and got:
            failures.append("%s/: expected clean, got:\n  %s"
                            % (rel, "\n  ".join(str(f) for f in got)))

    if failures:
        for f in failures:
            print("selftest FAIL: %s" % f, file=sys.stderr)
        return 1
    print("momlint selftest: %d fixture checks passed" % checked)
    return 0


def main(argv):
    p = argparse.ArgumentParser(
        prog="momlint.py",
        description="momsim determinism linter (see file docstring)")
    p.add_argument("--repo", default=REPO,
                   help="repository root (default: the checkout holding "
                        "this script)")
    p.add_argument("--update-schema-lock", action="store_true",
                   help="rewrite tests/schema.lock from the current "
                        "serializers and exit")
    p.add_argument("--selftest", action="store_true",
                   help="run the rules against tests/lint_fixtures/")
    args = p.parse_args(argv)

    try:
        if args.selftest:
            return selftest(args.repo)
        if args.update_schema_lock:
            lock = os.path.join(args.repo, "tests", "schema.lock")
            with open(lock, "w", encoding="utf-8") as f:
                f.write(render_lock(schema_snapshot(args.repo)))
            print("wrote %s" % lock)
            return 0
        findings = lint_repo(args.repo)
    except LintError as e:
        print("momlint: error: %s" % e, file=sys.stderr)
        return 2
    for f in findings:
        print(f)
    if findings:
        print("momlint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("momlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
