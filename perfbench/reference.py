"""A fixed, program-independent command that gauges host speed.

The host this benchmark was tuned on alternates between speed states
for seconds to minutes at a time, so the wall time of the same command
spreads by 15-25% from one run to the next.  ``run.py`` times this
command between the CLI commands of a run and scales the run's wall
times by how fast it ran.  It imports nothing from the program, so no
change to the program can move it.
"""

import json


def main() -> None:
    table = {str(i): [i, i * 2, {"k": i}] for i in range(20000)}
    back = json.loads(json.dumps(table))
    order = sorted(back.items(), key=lambda item: -item[1][1])
    print(len(order))


if __name__ == "__main__":
    main()
