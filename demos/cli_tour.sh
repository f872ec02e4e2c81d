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

printf 'AC,GT,AC\nGT,GT,AC\nAC,AC,GT\nAC,GT,GT\n' > "$tmp/cells.csv"

echo '== CSV cells as symbols: strings render as lists of cells =='
diverse-medians --objective sum-dispersion --format csv --input "$tmp/cells.csv" \
    --epsilon 1/2 --k 3

echo '== standalone combinatorial bound, no dataset needed =='
diverse-medians --objective bound --sizes 2,2,2,2 --t 3

echo '== same run twice is byte-identical =='
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3 --seed 7 --output "$tmp/a.json"
diverse-medians --objective min-dispersion --input "$tmp/rows.txt" \
    --epsilon 1/2 --k 3 --seed 7 --output "$tmp/b.json"
cmp "$tmp/a.json" "$tmp/b.json" && echo identical
