"""Run a command as a child process and check its peak resident memory.

    python3 .github/peak_rss.py LIMIT_MB -- CMD [ARG...]

CMD runs with PYTHONPATH=src, from the current directory. The script prints
the child's peak RSS and exits non-zero when the child fails or its peak
exceeds LIMIT_MB megabytes.
"""

import os
import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    limit_mb = float(argv[0])
    cmd = argv[2:]
    code = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH="src")).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB (limit {limit_mb:g} MB): {' '.join(cmd)}")
    return code or int(peak_mb > limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
