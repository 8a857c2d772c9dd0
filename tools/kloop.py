#!/usr/bin/env python3
"""Check the GEMM microkernels' k-loops in a compiled object.

    python3 tools/kloop.py build/CMakeFiles/realm.dir/src/tensor/gemm_kernels.cpp.o

Disassembles the object with objdump and finds, in every kern_* function, each
innermost loop that multiplies (vpdpbusd or vpmaddwd). For each it prints the
multiply, broadcast and prefetch counts plus two kinds of waste: vector
register-to-register moves and vector loads/stores that touch the stack.
The rule the kernels keep is that no accumulator leaves its register inside
the k-loop and every k-loop prefetches the panel stream; the exit status is 1
when a loop has a move, stack traffic or no prefetch, else 0 (2 when no
k-loop is found, e.g. on a build without the SIMD tiers).
"""
import re
import subprocess
import sys

MULTIPLY = ("vpdpbusd", "vpmaddwd")


def functions(listing):
    """Yield (name, [(address, mnemonic, operands)]) per disassembled symbol."""
    for block in re.split(r"\n(?=[0-9a-f]+ <)", listing):
        head = re.match(r"[0-9a-f]+ <(.*)>:", block)
        if not head:
            continue
        insns = []
        for line in block.splitlines()[1:]:
            m = re.match(r"\s*([0-9a-f]+):\s+(\S+)\s*(.*)", line)
            if m:
                insns.append((int(m.group(1), 16), m.group(2), m.group(3)))
        yield head.group(1), insns


def kloops(insns):
    """Innermost backward-branch loop bodies that contain a multiply."""
    loops = []
    for addr, op, args in insns:
        target = re.match(r"([0-9a-f]+) <", args)
        if op.startswith("j") and op != "jmp" and target and int(target.group(1), 16) < addr:
            loops.append((int(target.group(1), 16), addr))
    inner = [(lo, hi) for lo, hi in loops
             if not any(lo <= a and b <= hi and (a, b) != (lo, hi) for a, b in loops)]
    for lo, hi in inner:
        body = [i for i in insns if lo <= i[0] <= hi]
        if any(op in MULTIPLY for _, op, _ in body):
            yield body


def summarize(body):
    counts = {"mul": 0, "broadcast": 0, "prefetch": 0, "reg-move": 0, "stack": 0}
    for _, op, args in body:
        if op in MULTIPLY:
            counts["mul"] += 1
        elif op == "vpbroadcastd":
            counts["broadcast"] += 1
        elif op.startswith("prefetch"):
            counts["prefetch"] += 1
        if op.startswith("vmov") and "(" not in args:
            counts["reg-move"] += 1
        if op.startswith("v") and re.search(r"\(%r[sb]p\)", args):
            counts["stack"] += 1
    return counts


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    listing = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", sys.argv[1]],
                             check=True, capture_output=True, text=True).stdout
    found, bad = 0, 0
    for name, insns in functions(listing):
        kern = re.search(r"kern_\w+(<\d+ul>)?", name)
        if not kern:
            continue
        for body in kloops(insns):
            c = summarize(body)
            ok = c["reg-move"] == 0 and c["stack"] == 0 and c["prefetch"] > 0
            found += 1
            bad += not ok
            print(f"{kern.group(0):20s} " + ", ".join(f"{k} {v}" for k, v in c.items())
                  + ("" if ok else "   <-- violates the k-loop rule"))
    if found == 0:
        print("kloop: no k-loop found", file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
