import json,glob,sys,statistics as st
pat=sys.argv[1] if len(sys.argv)>1 else '2??'
def load(side):
    out={}
    for f in sorted(glob.glob(f'/root/scratch/bench/{side}-{pat}.json')):
        d=json.load(open(f))
        for r in d['results']:
            w=r.get('workload') or r.get('name')
            for k,v in r['metrics'].items():
                val=v['value'] if isinstance(v,dict) else v
                out.setdefault((w,k),[]).append(val)
            out.setdefault((w,'failed'),[]).append(r.get('failed',0))
    return out
P,C=load('parent'),load('change')
def q(xs):
    xs=sorted(xs);n=len(xs)
    if n<2: return xs[0],xs[0],xs[0]
    qs=st.quantiles(xs,n=4,method='inclusive')
    return qs[1],qs[0],qs[2]
for key in sorted(P):
    if key not in C: continue
    p,c=P[key],C[key]
    n=min(len(p),len(c))
    pm,p1,p3=q(p);cm,c1,c3=q(c)
    up=sum(1 for a,b in zip(p,c) if b>a);dn=sum(1 for a,b in zip(p,c) if b<a)
    print(f'{key[0]:15s} {key[1]:20s} parent {pm:11.4g} [{p1:.4g}, {p3:.4g}]  change {cm:11.4g} [{c1:.4g}, {c3:.4g}]  {100*(cm-pm)/pm if pm else 0:+6.1f}%  higher {up}/{n} lower {dn}/{n}  pmin {min(p):.4g} pmax {max(p):.4g} cmin {min(c):.4g} cmax {max(c):.4g}')
