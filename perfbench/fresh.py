"""Answer requests in a fresh interpreter, for the set-up and memory figures.

Reads {"workload": name, "inputs": [...]} from stdin, imports pairtrap,
answers the first input and at once prints the line "first <cpu seconds>":
the CPU time this process has used since it started, interpreter start-up,
imports and the first answer included.  It then answers the remaining
inputs and prints one JSON line with every answer and the peak resident set
size.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports pairtrap)


def main():
    job = json.load(sys.stdin)
    request = workloads.WORKLOADS[job["workload"]].request
    answers = [request(job["inputs"][0])]
    print("first %r" % time.process_time(), flush=True)
    answers += [request(inp) for inp in job["inputs"][1:]]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"answers": answers, "rss_kb": rss_kb}), flush=True)


if __name__ == "__main__":
    main()
