#!/usr/bin/env python3
"""tools/hot.py [--interval-us N] [--top K] [--match REGEX] -- COMMAND [ARGS...]

A sampling profiler that adds nothing to the program it measures: it
runs COMMAND under ptrace (x86-64 Linux, Python 3 stdlib only), and every
N microseconds stops its main thread, reads the instruction pointer and
lets it go again. Run the binary itself, not `cargo run`: only the
command's own main thread is sampled. At exit it symbolizes the samples with
`addr2line -f -i -C` (release builds carry line tables) and prints the
share of samples per outermost symbol (the function the code was
compiled into), per innermost inlined frame (the source function the
instruction came from) and per innermost inlined frame together with
its `file:line`, which tells two hot spots inside one function apart.
`--match REGEX` also prints the share of samples with any frame, inlined
or not, whose function name or source file matches REGEX — e.g.
`--match engine/src/queue.rs` for the event queue's share (an inlined
frame is named without its module path, so `amo_engine::queue` would
miss the queue code inlined into its callers).

An object without a `.symtab` (a stripped library, such as a glibc that
ships only `.dynsym`) names its local functions nowhere, and addr2line
would name each of their samples after the nearest export before it. A
sample there is printed as `<object>+0x<offset> (after <export>)`
instead: in the symbol views the offset is that export's, so samples
group per gap between exports; in the line view it is the sample's own.

    tools/hot.py --match engine/src/queue.rs -- \\
        ./target/release/amo-benchmark --workload barrier_amo_64 --seconds 3
"""
import argparse, bisect, collections, ctypes, os, re, struct, subprocess, sys, time

PTRACE_CONT, PTRACE_GETREGS = 7, 12
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
PTRACE_O_TRACEEXEC, PTRACE_EVENT_EXEC, PTRACE_EVENT_STOP = 0x10, 4, 128
RIP = 16  # index of rip in struct user_regs_struct

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=None, data=None):
    return libc.ptrace(req, pid, addr, data)


def sample(cmd, interval):
    """Run cmd, return the sampled instruction pointers and its maps."""
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: wait until traced, then become the command
        os.close(go_w)
        os.read(go_r, 1)
        os.execvp(cmd[0], cmd)
    os.close(go_r)
    if ptrace(PTRACE_SEIZE, pid, None, PTRACE_O_TRACEEXEC) != 0:
        sys.exit(f"hot.py: PTRACE_SEIZE failed: {os.strerror(ctypes.get_errno())}")
    os.write(go_w, b"x")
    _, status = os.waitpid(pid, 0)  # the exec stop: sampling starts here
    assert status >> 8 == (PTRACE_EVENT_EXEC << 8) | 5, "expected the exec stop"
    ptrace(PTRACE_CONT, pid)
    regs = (ctypes.c_ulonglong * 27)()
    rips, maps = [], None
    while True:
        time.sleep(interval)
        ptrace(PTRACE_INTERRUPT, pid)
        _, status = os.waitpid(pid, 0)
        if not os.WIFSTOPPED(status):
            return rips, maps or []
        signal = 0
        if status >> 16 == PTRACE_EVENT_STOP:
            ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
            rips.append(regs[RIP])
            if maps is None or len(rips) % 1000 == 0:  # libraries load late
                maps = read_maps(pid)
        else:  # a signal for the program: deliver it
            signal = os.WSTOPSIG(status)
        ptrace(PTRACE_CONT, pid, None, signal)


def read_maps(pid):
    """[(start, end, load base, path)] of the executable file mappings."""
    out, first = [], {}
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5]
            first.setdefault(path, start - int(parts[2], 16))
            if "x" in parts[1]:
                out.append((start, end, first[path], path))
    return out


def has_symtab(path):
    """True if the ELF64 object at path has a SHT_SYMTAB section."""
    with open(path, "rb") as f:
        head = f.read(64)
        shoff, = struct.unpack_from("<Q", head, 0x28)
        entsize, count = struct.unpack_from("<HH", head, 0x3A)
        f.seek(shoff)
        table = f.read(entsize * count)
    return any(struct.unpack_from("<I", table, i * entsize + 4)[0] == 2 for i in range(count))


def exports(path):
    """Sorted [(address, name)] of the functions path exports."""
    out = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True, text=True).stdout
    syms = (line.split() for line in out.splitlines())
    return sorted({(int(s[0], 16), s[2].split("@")[0]) for s in syms if len(s) == 3 and s[1] in "TtWi"})


def after_export(path, addrs):
    """{rip: (symbol-view name, line-view name)} for an object without .symtab."""
    syms, obj = exports(path), os.path.basename(path)
    named = {}
    for rip, off in addrs.items():
        i = bisect.bisect_right(syms, (off, chr(0x10FFFF))) - 1
        start, name = syms[i] if i >= 0 else (0, "start")
        named[rip] = (f"{obj}+0x{start:x} (after {name})", f"{obj}+0x{off:x} (after {name})")
    return named


def symbolize(rips, maps):
    """{rip: [innermost frame, ..., outermost frame]}, {rip: innermost frame at
    file:line}, {rip: ["frame file:line" for each frame]}."""
    by_file = collections.defaultdict(dict)
    frames, lines_at, sites = {}, {}, {}
    for rip in set(rips):
        hit = next((m for m in maps if m[0] <= rip < m[1]), None)
        if hit is None:
            frames[rip] = sites[rip] = ["[unknown]"]
            continue
        _, _, base, path = hit
        with open(path, "rb") as f:
            pie = f.read(18)[16] == 3  # ET_DYN: addresses are load-relative
        by_file[path][rip] = rip - base if pie else rip
    for path, addrs in by_file.items():
        if not has_symtab(path):
            for rip, (symbol, line) in after_export(path, addrs).items():
                frames[rip], lines_at[rip], sites[rip] = [symbol], line, [line]
            continue
        args = ["addr2line", "-a", "-f", "-i", "-C", "-e", path]
        args += [hex(a) for a in addrs.values()]
        text = subprocess.run(args, capture_output=True, text=True).stdout.splitlines()
        names, chains = [], []
        for line in text:  # "0x…" then (function, file:line) pairs
            if line.startswith("0x"):
                names = []
                chains.append(names)
            elif chains:
                names.append(line)
        for rip, lines in zip(addrs, chains):
            funcs = [n for n in lines[0::2] if n != "??"] or [f"[{os.path.basename(path)}]"]
            frames[rip] = funcs
            loc = lines[1].split(" ")[0] if len(lines) > 1 else "??"
            lines_at[rip] = f"{funcs[0]}  {'/'.join(loc.split('/')[-3:])}"
            sites[rip] = [f"{n} {at}" for n, at in zip(lines[0::2], lines[1::2])] or funcs
    return frames, lines_at, sites


def main():
    ap = argparse.ArgumentParser(usage=__doc__.splitlines()[0])
    ap.add_argument("--interval-us", type=int, default=200)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--match", action="append", default=[])
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.command[1:] if a.command[:1] == ["--"] else a.command
    if not cmd:
        ap.error("no command")
    rips, maps = sample(cmd, a.interval_us / 1e6)
    if not rips:
        sys.exit("hot.py: no samples")
    frames, lines_at, sites = symbolize(rips, maps)
    n = len(rips)
    print(f"{n} samples every {a.interval_us} us of {' '.join(cmd)}")
    views = [("outermost symbol", lambda r: frames[r][-1]),
             ("innermost inlined frame", lambda r: frames[r][0]),
             ("innermost inlined frame and line", lambda r: lines_at.get(r, frames[r][0]))]
    for title, key in views:
        counts = collections.Counter(key(r) for r in rips)
        print(f"\n share  per {title}")
        for name, c in counts.most_common(a.top):
            print(f"{100 * c / n:5.1f}%  {name[:150]}")
    for pattern in a.match:
        rx = re.compile(pattern)
        c = sum(1 for r in rips if any(rx.search(f) for f in sites[r]))
        print(f"\n{100 * c / n:5.1f}%  of samples have a frame matching /{pattern}/")


if __name__ == "__main__":
    main()
