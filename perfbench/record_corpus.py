"""Record the corpus report digests the corpus workload checks against.

    python3 perfbench/record_corpus.py

Run it only on a commit whose reports are known good: the benchmark then
fails any later commit whose report bytes or exit codes differ.
"""

import json
import sys

import run
from workloads import DIGESTS, corpus_canonical, corpus_op, load_corpus

if __name__ == "__main__":
    run.import_package()
    digests = {case.name: corpus_canonical(corpus_op(case)) for case in load_corpus()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cases in {DIGESTS}", file=sys.stderr)
