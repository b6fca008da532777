#!/usr/bin/env python3
"""Where a program's host time goes, layer by layer, from PC samples.

    python3 tools/pcsample/pcsample.py [--json FILE] -- CMD ...

Builds the sampler library (pcsample.c) with `cc` into a temporary
directory, runs CMD with it preloaded, then credits every sample:

  * a PC in a shared object to that object (libc, libstdc++, ...), by
    the process's memory map at exit;
  * a PC in the executable to its symbol, by `nm -C`, and the symbol to
    a layer by LAYERS below. A type-erased event body
    (`EventQueue::Action::Run<X>`, a `std::function` handler of X) is
    credited to X's layer.

It prints the shares and writes them as JSON (--json). When CMD's last
stdout line is irmcbench's result object, it also reports samples per
1,000 completed multicasts, which shows a layer getting faster even when
its share barely moves. CMD's own stdout goes to stderr.

The sampler times each thread by wall clock, so a thread blocked in a
wait is sampled at the wait: profile irmcbench with `--threads 1`, which
runs its trials on the main thread.
"""
import argparse
import bisect
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Layer of a symbol in the executable: the first entry with a prefix the
# symbol's qualified name starts with ("{anon}" stands for an anonymous
# namespace). Names not listed fall back to "irmc (unlisted)" or
# "unlisted"; the report lists the largest symbols with their layers, so
# this table can be extended.
LAYERS = (
    ("route logic", ("irmc::ComputeRouteBranches", "irmc::TreeWormDecision",
                     "irmc::RouteBranch", "irmc::{anon}::RouteTreeWorm",
                     "irmc::{anon}::AddHostBranch", "irmc::{anon}::PickPort")),
    ("network", ("irmc::FlitEngine", "irmc::Fabric", "irmc::NetworkModel",
                 "irmc::MakeNetworkModel", "irmc::Packet",
                 "irmc::PathWormRoute", "irmc::HeaderSizing")),
    ("sim", ("irmc::EventQueue", "irmc::Engine::", "irmc::TimelineResource")),
    ("core", ("irmc::McastDriver", "irmc::MulticastResult", "irmc::Trial",
              "irmc::RunTrials", "irmc::PrepareTrial",
              "irmc::RunLoadSweepPoint",
              "irmc::RunSingleMulticast", "irmc::PlayOnce",
              "irmc::ParallelExecutor", "irmc::ParallelThreads",
              "irmc::SetParallelThreads", "irmc::MessageShape",
              "irmc::SimConfig")),
    ("mcast", ("irmc::McastPlan", "irmc::MulticastScheme", "irmc::MakeScheme",
               "irmc::UnicastBinomialScheme", "irmc::KBinomialNiScheme",
               "irmc::TreeWormScheme", "irmc::PathWormMdpLgScheme",
               "irmc::SeparateAddressingScheme", "irmc::ChooseK",
               "irmc::EvalFpfsCompletion", "irmc::BuildCappedBinomial",
               "irmc::AssignBinomialChildren", "irmc::OrderDestsBySwitch",
               "irmc::BinomialNode", "irmc::FindBestCoveragePath",
               "irmc::BestPathResult", "irmc::{anon}::CoverageSearch",
               "irmc::{anon}::FpfsCompletion")),
    ("metrics", ("irmc::MetricsRegistry", "irmc::MetricSlots",
                 "irmc::Histogram", "irmc::Counter", "irmc::Gauge",
                 "irmc::BinSlice", "irmc::BinnedQuantile", "irmc::ToJson",
                 "irmc::ToCsv", "irmc::WriteFile", "irmc::SerializeForPath")),
    ("trace", ("irmc::Tracer", "irmc::TraceKind", "irmc::TraceEvent")),
    ("topology", ("irmc::System", "irmc::Graph", "irmc::RoutingTable",
                  "irmc::UpDownOrientation", "irmc::BfsTree",
                  "irmc::Reachability", "irmc::ChannelWiring",
                  "irmc::GenerateTopology", "irmc::SelectRoot")),
    ("common", ("irmc::Rng", "irmc::Args", "irmc::json", "irmc::NodeSet",
                "irmc::Csr", "irmc::StreamingStats", "irmc::SampleSet",
                "irmc::RealRange", "irmc::Parse", "irmc::detail",
                "irmc::GetBuildInfo", "irmc::BuildInfo", "irmc::VersionLine")),
    ("irmcbench", ("irmcbench::",)),
    ("std", ("std::", "__gnu_cxx::", "operator new", "operator delete")),
)

# Type-erased wrappers, credited to the template argument they wrap.
WRAPPERS = (("irmc::EventQueue::Action::", 0), ("std::_Function_handler<", 1))

# Symbols of the executable the report lists, largest first.
TOP_SYMBOLS = 15


def split_top(text, sep):
    """Splits at `sep` outside (), <> and {}."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "(<{":
            depth += 1
        elif ch in ")>}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def qualified_name(symbol):
    """A demangled symbol's qualified name: no return type, no parameters."""
    s = symbol.replace("(anonymous namespace)", "{anon}")
    depth = 0
    end = len(s)
    for i, ch in enumerate(s):
        if ch in "<{":
            depth += 1
        elif ch in ">}":
            depth -= 1
        elif ch == "(" and depth == 0:
            end = i
            break
    return split_top(s[:end], " ")[-1]


def subject(symbol):
    """The name a symbol's samples are credited by."""
    name = qualified_name(symbol)
    for prefix, index in WRAPPERS:
        if name.startswith(prefix) and "<" in name:
            inner = name[name.index("<") + 1:name.rindex(">")]
            args = split_top(inner, ",")
            if index < len(args):
                return subject(args[index].strip())
    return name


def layer_of(symbol):
    name = subject(symbol)
    for layer, prefixes in LAYERS:
        if name.startswith(prefixes):
            return layer
    return "irmc (unlisted)" if name.startswith("irmc") else "unlisted"


def object_name(path):
    """libc.so.6 -> libc; [vdso] stays."""
    base = os.path.basename(path)
    return base.split(".so")[0] if ".so" in base else base


def read_samples(path):
    head, maps, pcs = {}, [], []
    section = "head"
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "pcs"):
                section = line
            elif section == "head":
                key, _, value = line.partition(" ")
                head[key] = value
            elif section == "maps":
                fields = line.split(None, 5)
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16),
                             fields[5] if len(fields) > 5 else ""))
            else:
                pc, count = line.split()
                pcs.append((int(pc, 16), int(count)))
    maps.sort()
    return head, maps, pcs


def load_bias(exe, maps):
    """What to subtract from a PC in `exe` to get its nm address."""
    with open(exe, "rb") as f:
        elf = f.read(18)
    if int.from_bytes(elf[16:18], "little") != 3:  # not ET_DYN: absolute
        return 0
    return min(lo for lo, _, off, path in maps if path == exe and off == 0)


def read_symbols(exe):
    """Sorted (address, end or None, name) of the executable's code."""
    out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", exe],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        fields = line.split(" ", 3)
        if len(fields) == 4 and len(fields[2]) == 1:
            addr, size, kind, name = fields
            end = int(addr, 16) + int(size, 16)
        else:
            fields = line.split(" ", 2)
            if len(fields) < 3:
                continue
            addr, kind, name = fields
            end = None
        if kind in "TtWw":
            syms.append((int(addr, 16), end, name))
    return syms


def attribute(head, maps, pcs):
    """(samples per layer, samples per executable symbol)."""
    exe = head["exe"]
    bias = load_bias(exe, maps)
    syms = read_symbols(exe)
    starts = [s[0] for s in syms]
    map_starts = [m[0] for m in maps]
    layers, symbols = {}, {}
    for pc, count in pcs:
        i = bisect.bisect_right(map_starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            layer = "[unmapped]"
        elif maps[i][3] != exe:
            layer = object_name(maps[i][3]) or "[anonymous]"
        else:
            addr = pc - bias
            j = bisect.bisect_right(starts, addr) - 1
            if j < 0 or (syms[j][1] is not None and addr >= syms[j][1]):
                name = "[no symbol]"
            else:
                name = syms[j][2]
            layer = layer_of(name)
            symbols[name] = symbols.get(name, 0) + count
        layers[layer] = layers.get(layer, 0) + count
    return layers, symbols


def completed_ops(stdout):
    """Completed multicasts from irmcbench's result line, else None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    if not isinstance(result, dict) or "attempted" not in result:
        return None
    return result["attempted"] - result.get("failed", 0)


def build_lib(workdir):
    lib = os.path.join(workdir, "libpcsample.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                    os.path.join(HERE, "pcsample.c"), "-ldl", "-lrt",
                    "-pthread"], check=True)
    return lib


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", help="write the shares here")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("give the command to profile after --")

    workdir = tempfile.mkdtemp(prefix="pcsample.")
    try:
        lib = build_lib(workdir)
        env = dict(os.environ, PCSAMPLE_DIR=workdir)
        env["LD_PRELOAD"] = " ".join(
            filter(None, [lib, env.get("LD_PRELOAD")]))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                text=True)
        stdout, _ = proc.communicate()
        sys.stderr.write(stdout)
        path = os.path.join(workdir, "pcsample.%d.txt" % proc.pid)
        if proc.returncode != 0 or not os.path.exists(path):
            sys.exit("pcsample: %s exited %d%s" % (
                cmd[0], proc.returncode,
                "" if os.path.exists(path) else " and wrote no samples"))
        head, maps, pcs = read_samples(path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    layers, symbols = attribute(head, maps, pcs)
    total = sum(layers.values())
    if total == 0:
        sys.exit("pcsample: no samples")
    ops = completed_ops(stdout)
    report = {
        "command": cmd,
        "interval_us": int(head["interval_us"]),
        "samples": total,
        "dropped": int(head["dropped"]),
        "completed_mcasts": ops,
        "layers": {},
        "top_symbols": [],
    }
    for layer, n in sorted(layers.items(), key=lambda kv: -kv[1]):
        entry = {"samples": n, "share": n / total}
        if ops:
            entry["per_1k_mcasts"] = 1000.0 * n / ops
        report["layers"][layer] = entry
    for name, n in sorted(symbols.items(), key=lambda kv: -kv[1])[:TOP_SYMBOLS]:
        report["top_symbols"].append({"symbol": name, "layer": layer_of(name),
                                      "samples": n, "share": n / total})

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("%d samples every %d us%s" % (
        total, report["interval_us"],
        ", %d completed multicasts" % ops if ops else ""))
    for layer, entry in report["layers"].items():
        print("  %-16s %6.1f%%%s" % (
            layer, 100.0 * entry["share"],
            "  %8.1f per 1k mcasts" % entry["per_1k_mcasts"] if ops else ""))
    print("top symbols:")
    for s in report["top_symbols"]:
        print("  %5.1f%%  %-12s %s" % (100.0 * s["share"], s["layer"],
                                       s["symbol"][:110]))


if __name__ == "__main__":
    main()
