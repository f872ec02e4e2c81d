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

echo '== the oracle checks k before reading the input too: exit code 2, naming k =='
rc=0
err=$(diverse-medians --objective oracle --oracle-op mindp --k 1 \
    --input "$tmp/missing.txt" 2>&1) || rc=$?
[ "$rc" = 2 ]
case $err in *k\ must*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== a declared alphabet is checked in little memory: exit code 2 under a 1 GB ceiling =='
# 8,000 symbols: |Σ|×|Σ| tables would need 488 MiB each before the input is read
symbols=$(python3 -c 'print(",".join(f"s{i}" for i in range(8000)))')
rc=0
err=$( (ulimit -v 1000000; diverse-medians --objective median --alphabet "$symbols" \
    --input "$tmp/missing.txt") 2>&1) || rc=$?
[ "$rc" = 2 ]
case $err in *"cannot read $tmp/missing.txt"*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== a flag past 4300 digits: exit code 2, naming it, with no traceback =='
rc=0
err=$(diverse-medians --objective median --input "$tmp/rows.txt" --epsilon 1e5000 2>&1) \
    || rc=$?
[ "$rc" = 2 ]
case $err in *Traceback*) exit 1 ;; *--epsilon*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== a flag of a hundred million digits is refused before it is expanded: exit code 2 =='
rc=0
err=$(timeout 10 diverse-medians --objective median --input "$tmp/rows.txt" \
    --epsilon 1e100000000 2>&1) || rc=$?
[ "$rc" = 2 ]
case $err in *Traceback*) exit 1 ;; *--epsilon*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== k = 20,000 on the rows widened to 400 columns: members repeat, min dispersion 0 at once =='
# one distance pass per member took 24 s on a 2-core host; one pass finds the repeat
python3 -c 'import sys; [print(r[:3] * 133 + r[3]) for r in sys.argv[1:]]' \
    abca abcb abca bbcb > "$tmp/rows400.txt"
rc=0
timeout 10 diverse-medians --objective min-dispersion --input "$tmp/rows400.txt" --k 20000 \
    --delta 1/20000 --output "$tmp/k20000.json" || rc=$?
[ "$rc" = 0 ]
echo "exit code $rc"

echo '== a delta with a 30-digit denominator: the exact auto walk decides at once, exit code 0 =='
printf 'aaaaaaaaaaaaaa\naaaaaaaaaaaaaa\nbbbbbbbbbbbbbb\nbbbbbbbbbbbbbb\n' > "$tmp/ties14.txt"
rc=0
timeout 60 diverse-medians --objective min-dispersion --input "$tmp/ties14.txt" --k 2 \
    --delta 999999999999999999999999999999/1000000000000000000000000000000 \
    --output "$tmp/long-delta.json" || rc=$?
[ "$rc" = 0 ]
echo "exit code $rc"

echo '== the DP refuses k = 20,000 before it allocates: exit code 3 under a 1 GB ceiling =='
rc=0
err=$( (ulimit -v 1000000; diverse-medians --objective min-dispersion --strategy dp \
    --input "$tmp/rows.txt" --k 20000) 2>&1) || rc=$?
[ "$rc" = 3 ]
case $err in *max_states=*) echo "exit code $rc: $err" ;; *) exit 1 ;; esac

echo '== a strategy the objective does not take: exit code 2, naming the ones it does =='
rc=0
err=$(diverse-medians --objective sum-dispersion --strategy dp --input "$tmp/rows.txt" 2>&1) \
    || rc=$?
[ "$rc" = 2 ]
case $err in *'allowed: auto, exact-construction, greedy') echo "exit code $rc: $err" ;;
    *) exit 1 ;; esac

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
