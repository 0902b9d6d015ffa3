# Prints, per workload x metric, each side's median [quartiles], the
# change in the median, and in how many pairs the change read higher /
# lower than the parent. Usage: python3 summarize.py <dir> <label>
# (reads <dir>/<label>-{parent,change}-<seed>.json, pairs by seed).
import glob, json, os, re, statistics as st, sys

d, label = sys.argv[1], sys.argv[2]

def load(side):
    out = {}
    for f in glob.glob(os.path.join(d, f'{label}-{side}-*.json')):
        seed = int(re.search(r'-(\d+)\.json$', f).group(1))
        for r in json.load(open(f))['results']:
            w = r.get('workload') or r.get('name')
            for k, v in r['metrics'].items():
                out.setdefault((w, k), {})[seed] = v['value'] if isinstance(v, dict) else v
            out.setdefault((w, 'failed'), {})[seed] = r.get('failed', 0)
    return out

def q(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = st.quantiles(xs, n=4, method='inclusive')
    return q2, q1, q3

P, C = load('parent'), load('change')
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
