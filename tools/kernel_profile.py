#!/usr/bin/env python3
"""Stage-level CPU profile of a momsim run, with no special build option.

    python3 tools/kernel_profile.py [--runs R] -- MOMSIM [ARGS...]
    python3 tools/kernel_profile.py --selftest

Compiles a small setitimer(ITIMER_PROF) preload with the system `cc`
into a temporary directory, runs the given momsim command under it, and
resolves every sampled instruction address with `addr2line -f -C -i`
(inline chains included). Prints each kernel stage's share of the
samples -- commit, stream, issue, dispatch, fetch, memory, other -- and
the TOP (15) hottest source lines. Repeat the command with `--runs R` to pool
several runs.

The binary needs line tables: configure a Release build with
`cmake -B build-g -S . -DCMAKE_CXX_FLAGS=-g`. `-g` adds debug sections
only; the generated code is the same as the default Release build's.

Attribution: an address counts toward the memory system when any frame
of its inline chain lies in momsim::mem; otherwise toward the stage of
the innermost frame that names one (so a helper inlined into the issue
scan counts as issue). Out-of-line helpers with a single calling stage
are mapped by name (OUT_OF_LINE). Samples outside the binary (libc,
libstdc++, the kernel's return path) count as other.
"""

import collections
import os
import shutil
import subprocess
import sys
import tempfile

STAGES = ("commit", "stream", "issue", "dispatch", "fetch", "memory",
          "other")

# Hottest source lines listed after the stage table.
TOP = 15

# Frame-name fragments naming a stage, checked innermost frame first.
STAGE_FRAMES = (
    ("SmtCore::commitStage", "commit"),
    ("SmtCore::streamStage", "stream"),
    ("SmtCore::issueStage", "issue"),
    ("SmtCore::issueFromQueue", "issue"),
    ("SmtCore::tryExecute", "issue"),
    ("SmtCore::dispatchStage", "dispatch"),
    ("SmtCore::fetchStage", "fetch"),
    ("SmtCore::fetchOrder", "fetch"),
)

# Out-of-line helpers the compiler may not inline, each called from one
# stage only, so their own samples belong to that stage.
OUT_OF_LINE = (
    ("SmtCore::flushThread", "issue"),
    ("SmtCore::wakeDependents", "issue"),
    ("SmtCore::trackProducers", "dispatch"),
    ("SmtCore::dispatchGate", "dispatch"),
)

PRELOAD_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* Asks for 1 kHz; ITIMER_PROF fires on the kernel's tick, so a kernel
 * with a slower tick delivers fewer samples (at 250 Hz, one per 4 ms). */
#define PERIOD_US 1000
#define MAX_SAMPLES (1u << 22)
static unsigned long samples[MAX_SAMPLES];
static unsigned nsamples;

static void
on_prof(int sig, siginfo_t *si, void *uc_)
{
    ucontext_t *uc = (ucontext_t *)uc_;
    (void)sig; (void)si;
    unsigned i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = { { 0, PERIOD_US }, { 0, PERIOD_US } };
    setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((destructor)) static void
stop(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, 0);
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    FILE *out = fopen(OUT_PATH, "w");
    if (!out)
        return;
    /* The executable's extent: its lowest and highest mapped address. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[8192];
    unsigned long base = 0, end = 0;
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char path[4096] = "";
        if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %4095s", &lo, &hi, path) == 3
            && strcmp(path, exe) == 0) {
            if (!base || lo < base)
                base = lo;
            if (hi > end)
                end = hi;
        }
    }
    fprintf(out, "base %lx %lx %s\n", base, end, exe);
    if (maps)
        fclose(maps);
    unsigned total = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
    for (unsigned i = 0; i < total; ++i)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
"""


def stage_of(frames):
    """Stage for one address, given its inline chain (innermost first)."""
    if any("momsim::mem::" in f for f in frames):
        return "memory"
    for f in frames:
        for frag, stage in STAGE_FRAMES:
            if frag in f:
                return stage
    for f in frames:
        for frag, stage in OUT_OF_LINE:
            if frag in f:
                return stage
    return "other"


def parse_addr2line(text, addrs):
    """Map each address to ([function, ...], innermost 'file:line').

    With -f -i -a, addr2line prints per address a '0x...' header, then
    (function, file:line) pairs, innermost inline frame first.
    """
    out = {}
    cur, funcs, line = None, [], None
    pending_func = None
    for raw in text.splitlines():
        if raw.startswith("0x") and pending_func is None:
            if cur is not None:
                out[cur] = (funcs, line)
            cur, funcs, line = int(raw, 16), [], None
            continue
        if pending_func is None:
            pending_func = raw.strip()
        else:
            funcs.append(pending_func)
            if line is None:
                line = raw.strip().rsplit("/", 1)[-1].split(" ")[0]
            pending_func = None
    if cur is not None:
        out[cur] = (funcs, line)
    for a in addrs:
        out.setdefault(a, ([], None))
    return out


def resolve(binary, addrs):
    addrs = sorted(set(addrs))
    if not addrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", binary],
        input="".join("%x\n" % a for a in addrs),
        stdout=subprocess.PIPE, universal_newlines=True, check=True)
    return parse_addr2line(proc.stdout, addrs)


def is_pie(binary):
    with open(binary, "rb") as f:
        head = f.read(18)
    return head[:4] == b"\x7fELF" and head[16] == 3     # e_type ET_DYN


def compile_preload(tmp, out_path):
    src = os.path.join(tmp, "prof.c")
    lib = os.path.join(tmp, "libprof.so")
    with open(src, "w") as f:
        f.write(PRELOAD_C)
    subprocess.run(["cc", "-O1", "-shared", "-fPIC", "-o", lib, src,
                    '-DOUT_PATH="%s"' % out_path], check=True)
    return lib


def profile(cmd, runs):
    """(binary, {binary-relative address: samples}, samples outside)."""
    hist = collections.Counter()
    outside = 0
    binary = None
    tmp = tempfile.mkdtemp(prefix="kernel_profile.")
    try:
        out_path = os.path.join(tmp, "samples.txt")
        lib = compile_preload(tmp, out_path)
        env = dict(os.environ, LD_PRELOAD=lib)
        for _ in range(runs):
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                sys.exit("kernel_profile: command exited %d"
                         % proc.returncode)
            with open(out_path) as f:
                lines = f.read().split()
            if len(lines) < 4 or lines[0] != "base":
                sys.exit("kernel_profile: no samples recorded")
            base, end = int(lines[1], 16), int(lines[2], 16)
            binary = lines[3]
            bias = base if is_pie(binary) else 0
            for word in lines[4:]:
                addr = int(word, 16)
                if base <= addr < end:
                    hist[addr - bias] += 1
                else:
                    outside += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return binary, hist, outside


def report(hist, outside, resolved):
    shares = collections.Counter()
    lines = collections.Counter()
    for addr, n in hist.items():
        funcs, line = resolved.get(addr, ([], None))
        shares[stage_of(funcs)] += n
        lines["%s  %s" % (line or "??", funcs[0] if funcs else "??")] += n
    shares["other"] += outside
    total = sum(hist.values()) + outside
    print("samples %d (%d outside the binary)" % (total, outside))
    print("%-10s %8s %7s" % ("stage", "samples", "share"))
    for s in STAGES:
        print("%-10s %8d %6.1f%%" % (s, shares[s],
                                      100.0 * shares[s] / max(1, total)))
    print("\nhottest lines (innermost frame):")
    for key, n in lines.most_common(TOP):
        print("%6.2f%%  %s" % (100.0 * n / max(1, total), key[:150]))
    return shares


def selftest():
    text = "\n".join([
        "0x0000000000001000",
        "momsim::cpu::SmtCore::dispatchGate(...) const",
        "/src/cpu/smt_core.cc:850",
        "momsim::cpu::SmtCore::dispatchStage()::{lambda(int)#1}::operator()(int) const",
        "/src/cpu/smt_core.cc:901 (discriminator 2)",
        "momsim::cpu::SmtCore::step(unsigned long)",
        "/src/cpu/smt_core.cc:517",
        "0x0000000000001010",
        "momsim::mem::Cache::probe(unsigned long)",
        "/src/mem/cache.cc:40",
        "momsim::cpu::SmtCore::tryExecute(int, unsigned long, QueueKind)",
        "/src/cpu/smt_core.cc:754",
        "0x0000000000001020",
        "momsim::cpu::SmtCore::wakeDependents(Thread&, unsigned long)",
        "/src/cpu/smt_core.cc:250",
        "0x0000000000001030",
        "??",
        "??:0",
    ])
    got = parse_addr2line(text, [0x1000, 0x1010, 0x1020, 0x1030, 0x1040])
    checks = [
        (got[0x1000][1], "smt_core.cc:850"),
        (len(got[0x1000][0]), 3),
        (stage_of(got[0x1000][0]), "dispatch"),
        (stage_of(got[0x1010][0]), "memory"),
        (stage_of(got[0x1020][0]), "issue"),
        (stage_of(got[0x1030][0]), "other"),
        (got[0x1040], ([], None)),
        (stage_of(["momsim::cpu::SmtCore::commitStage()::{lambda(int)#1}"]),
         "commit"),
        (stage_of(["std::vector<int>::push_back(int const&)",
                   "momsim::cpu::SmtCore::fetchOrder()"]), "fetch"),
    ]
    bad = [(g, w) for g, w in checks if g != w]
    for g, w in bad:
        print("selftest: got %r, want %r" % (g, w))
    print("kernel_profile selftest: %d/%d ok" % (len(checks) - len(bad),
                                                  len(checks)))
    return 1 if bad else 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    runs = 1
    args = argv[1:]
    if len(args) >= 2 and args[0] == "--runs" and args[1].isdigit():
        runs = int(args[1])
        args = args[2:]
    if len(args) < 2 or args[0] != "--" or runs < 1:
        sys.exit(__doc__)
    for tool in ("cc", "addr2line"):
        if shutil.which(tool) is None:
            sys.exit("kernel_profile: `%s` not found" % tool)
    binary, hist, outside = profile(args[1:], runs)
    report(hist, outside, resolve(binary, list(hist)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
