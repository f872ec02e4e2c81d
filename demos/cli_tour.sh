#!/bin/sh
# Quick tour of the command line. Run from anywhere after `pip install .`
set -e

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'abca\nabcb\nabca\nbbcb\n' > "$tmp/rows.txt"

echo '== median =='
diverse-medians --objective median --input "$tmp/rows.txt"

echo '== farthest pair within a 1/2 budget =='
diverse-medians --objective diameter --input "$tmp/rows.txt" --epsilon 1/2

echo '== three strings, maximize the smallest pairwise distance =='
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3 --seed 7

echo '== every string within a 1/2 budget, decoded from the pool =='
diverse-medians --objective oracle --oracle-op approx-medians --input "$tmp/rows.txt" \
    --epsilon 1/2

echo '== three strings picked from that pool, maximize the total spread =='
diverse-medians --objective sum-dispersion --strategy greedy --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3

echo '== at eps = 0: farthest-point greedy over every exact median =='
diverse-medians --objective min-dispersion --strategy greedy --input "$tmp/rows.txt" \
    --k 3

echo '== every exact median, decoded from the pool =='
diverse-medians --objective oracle --oracle-op exact-medians --input "$tmp/rows.txt"

echo '== delta outside (0, 1) is a validation error: exit code 2 =='
rc=0
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" --delta 0 || rc=$?
[ "$rc" = 2 ]
echo "exit code $rc"

echo '== flags are checked before the input is read: exit code 2, naming the flag =='
rc=0
err=$(diverse-medians --objective min-dispersion --input "$tmp/missing.txt" --delta 2 2>&1) \
    || rc=$?
[ "$rc" = 2 ]
case $err in *delta*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== a closed standard error does not change the exit code: 0 =='
rc=0
python3 - diverse-medians --objective median --input "$tmp/rows.txt" \
    --output "$tmp/closed.json" <<'EOF' || rc=$?
import os, subprocess, sys
read_end, write_end = os.pipe()
os.close(read_end)  # the reader is gone before the run prints its first line
sys.exit(subprocess.run(sys.argv[1:], stderr=write_end).returncode)
EOF
[ "$rc" = 0 ]
echo "exit code $rc"

printf 'AC,GT,AC\nGT,GT,AC\nAC,AC,GT\nAC,GT,GT\n' > "$tmp/cells.csv"

echo '== CSV cells as symbols: strings render as lists of cells =='
diverse-medians --objective sum-dispersion --format csv --input "$tmp/cells.csv" \
    --epsilon 1/2 --k 3

echo '== standalone combinatorial bound, no dataset needed =='
diverse-medians --objective bound --sizes 2,2,2,2 --t 3

echo '== an alphabet size below 1 is a validation error: exit code 2 =='
rc=0
diverse-medians --objective bound --sizes 0,2 --t 1 || rc=$?
[ "$rc" = 2 ]
echo "exit code $rc"

echo '== same run twice is byte-identical =='
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3 --seed 7 --output "$tmp/a.json"
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3 --seed 7 --output "$tmp/b.json"
cmp "$tmp/a.json" "$tmp/b.json" && echo identical
