"""Handler of classify, apart so that a classify run compiles no other handler."""

from .output import print_json


def cmd_classify(args):
    from .classify import INDEX_BOUND, RATIO_BOUND, classify_hits

    index_bound = INDEX_BOUND if args.index_bound is None else args.index_bound
    ratio_bound = RATIO_BOUND if args.ratio_bound is None else args.ratio_bound
    sightings = {}  # descriptor -> its hits, in hit order
    for hit in classify_hits(index_bound, ratio_bound, args.relax_width):
        sightings.setdefault(hit.descriptor, []).append(hit)
    found = sorted(sightings)
    if args.format == "json":
        payload = [
            {
                "group": desc.to_json(),
                "levels": [h.candidate.level for h in sightings[desc]],
                "conditions": sightings[desc][0].report.to_json(),
            }
            for desc in found
        ]
        print_json(payload)
        return
    for desc in found:
        levels = ",".join(str(h.candidate.level) for h in sightings[desc])
        rep = sightings[desc][0].report
        print(
            "%-6s levels=%s width_one=%s exponent_two=%s index=%d over=%d"
            % (
                desc.display,
                levels,
                rep.width_one,
                rep.exponent_two,
                rep.index_in_modular,
                rep.index_over_modular,
            )
        )
    print("total: %d" % len(found))
