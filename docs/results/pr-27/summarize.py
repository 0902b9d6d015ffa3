# Prints, per workload x metric, each side's median [quartiles], the
# change in the median, and in how many pairs the change read higher /
# lower than the parent. Usage: python3 summarize.py <set>.jsonl
# (one benchmark result file per line, tagged with its side and seed;
# pairs by seed).
import json, statistics as st, sys

runs = {'parent': {}, 'change': {}}
for line in open(sys.argv[1]):
    doc = json.loads(line)
    out = runs[doc['side']]
    for r in doc['results']:
        w = r.get('workload') or r.get('name')
        for k, v in r['metrics'].items():
            out.setdefault((w, k), {})[doc['seed']] = v['value'] if isinstance(v, dict) else v
        out.setdefault((w, 'failed'), {})[doc['seed']] = r.get('failed', 0)

def q(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = st.quantiles(xs, n=4, method='inclusive')
    return q2, q1, q3

P, C = runs['parent'], runs['change']
for key in sorted(P):
    if key not in C:
        continue
    seeds = sorted(set(P[key]) & set(C[key]))
    p, c = [P[key][s] for s in seeds], [C[key][s] for s in seeds]
    pm, p1, p3 = q(p)
    cm, c1, c3 = q(c)
    up = sum(b > a for a, b in zip(p, c))
    dn = sum(b < a for a, b in zip(p, c))
    pct = 100 * (cm - pm) / pm if pm else 0
    print(f'{key[0]:15s} {key[1]:34s} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  '
          f'change {cm:10.4g} [{c1:.4g}, {c3:.4g}]  {pct:+6.1f}%  higher {up}/{len(seeds)} lower {dn}/{len(seeds)}')
