"""The service/fleet browser dashboard (one self-contained HTML page).

``repro serve --dashboard`` exposes ``GET /dashboard``: a single
stdlib-served page, zero external assets, that polls the JSON the
server already publishes — ``/metrics``, ``/campaigns``, and (in fleet
mode) ``/fleet/nodes`` — every couple of seconds and renders queue
depth, throughput, per-node worker status, and campaign progress bars.
All rendering happens client-side from those documents, so the page
adds no server state and no new data paths: it is a *view* over the
observability endpoints, and curling them remains the scriptable
equivalent.
"""

from __future__ import annotations

#: poll period of the page, seconds (client-side).
POLL_S = 2.0

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro service dashboard</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 1.5rem; background: #111418; color: #d6dbe1; }
  h1 { font-size: 1.1rem; letter-spacing: .06em; }
  h2 { font-size: .9rem; margin: 1.4rem 0 .4rem;
       color: #8ab4f8; text-transform: uppercase; }
  .cards { display: flex; flex-wrap: wrap; gap: .6rem; }
  .card { background: #1b2026; border: 1px solid #2a313a;
          border-radius: 6px; padding: .5rem .8rem; min-width: 7.5rem; }
  .card .v { font-size: 1.3rem; color: #e8eaed; }
  .card .k { font-size: .7rem; color: #9aa0a6; }
  table { border-collapse: collapse; width: 100%%; font-size: .8rem; }
  th, td { text-align: left; padding: .25rem .6rem;
           border-bottom: 1px solid #2a313a; }
  th { color: #9aa0a6; font-weight: normal; }
  .ok { color: #81c995; } .dead { color: #f28b82; }
  .bar { background: #2a313a; border-radius: 3px; height: .55rem;
         width: 10rem; display: inline-block; vertical-align: middle; }
  .bar i { display: block; height: 100%%; border-radius: 3px;
           background: #8ab4f8; }
  #err { color: #f28b82; font-size: .8rem; min-height: 1rem; }
  footer { margin-top: 1.5rem; font-size: .7rem; color: #5f6368; }
</style>
</head>
<body>
<h1>repro service dashboard</h1>
<div id="err"></div>
<h2>Service</h2>
<div class="cards" id="cards"></div>
<h2>Worker nodes</h2>
<table id="nodes"><tbody><tr><td>local scheduler (no fleet)</td></tr>
</tbody></table>
<h2>Campaigns</h2>
<table id="campaigns"><tbody></tbody></table>
<footer>polling /metrics, /campaigns, /fleet/nodes every %(poll_ms)d ms
&middot; stdlib only</footer>
<script>
"use strict";
const POLL_MS = %(poll_ms)d;
const fmt = (v, d) => v == null ? "&ndash;"
  : typeof v === "number" ? v.toFixed(d === undefined ? 0 : d) : v;
function card(k, v) {
  return `<div class="card"><div class="v">${v}</div>` +
         `<div class="k">${k}</div></div>`;
}
async function fetchJSON(path) {
  const r = await fetch(path);
  if (!r.ok) throw new Error(path + " -> " + r.status);
  return r.json();
}
function renderMetrics(m) {
  document.getElementById("cards").innerHTML = [
    card("queue depth", fmt(m.queue_depth)),
    card("in flight", fmt(m.inflight)),
    card("jobs/sec", fmt(m.jobs_per_sec, 2)),
    card("completed", fmt(m.jobs_completed)),
    card("failed", fmt(m.jobs_failed)),
    card("cache hit rate", fmt(100 * (m.cache_hit_rate || 0), 1) + "%%"),
    card("p95 latency", m.latency_p95_s == null ? "&ndash;"
         : fmt(m.latency_p95_s, 3) + "s"),
    card("state", m.draining ? "draining" : "serving"),
  ].join("");
}
function renderNodes(doc) {
  const rows = (doc.nodes || []).map(n =>
    `<tr><td>${n.name} <small>(${n.node_id})</small></td>` +
    `<td class="${n.alive ? "ok" : "dead"}">` +
    `${n.alive ? "alive" : "DEAD"}</td>` +
    `<td>${n.jobs}</td>` +
    `<td>${fmt(n.routed)}</td><td>${fmt(n.leased)}</td>` +
    `<td>${fmt(n.completed)}</td><td>${fmt(n.failed)}</td>` +
    `<td>${fmt(n.heartbeat_age_s, 1)}s</td></tr>`);
  document.getElementById("nodes").innerHTML =
    "<thead><tr><th>node</th><th>state</th><th>jobs</th>" +
    "<th>routed</th><th>leased</th><th>done</th><th>failed</th>" +
    "<th>last beat</th></tr></thead><tbody>" +
    (rows.length ? rows.join("") :
     "<tr><td colspan=9>no workers registered</td></tr>") + "</tbody>";
}
function renderCampaigns(doc) {
  const rows = (doc.campaigns || []).map(c => {
    const svc = c.service || {};
    const total = c.total || svc.submitted || 0;
    const done = (c.completed != null ? c.completed : svc.completed) || 0;
    const pct = total ? Math.min(100, 100 * done / total) : 0;
    return `<tr><td>${c.name}</td>` +
      `<td><span class="bar"><i style="width:${pct}%%"></i></span> ` +
      `${done}/${total || "?"}</td>` +
      `<td>${fmt(svc.failed)}</td>` +
      `<td>${c.mean_ipc_total == null ? "&ndash;"
             : fmt(c.mean_ipc_total, 3)}</td></tr>`;
  });
  document.getElementById("campaigns").innerHTML =
    "<thead><tr><th>campaign</th><th>progress</th><th>failed</th>" +
    "<th>mean IPC</th></tr></thead><tbody>" +
    (rows.length ? rows.join("") :
     "<tr><td colspan=4>no campaigns yet</td></tr>") + "</tbody>";
}
async function tick() {
  const err = document.getElementById("err");
  try {
    renderMetrics(await fetchJSON("/metrics"));
    renderCampaigns(await fetchJSON("/campaigns"));
    try { renderNodes(await fetchJSON("/fleet/nodes")); }
    catch (e) { /* not in fleet mode: keep the local-scheduler row */ }
    err.textContent = "";
  } catch (e) { err.textContent = "poll failed: " + e.message; }
}
tick();
setInterval(tick, POLL_MS);
</script>
</body>
</html>
"""


def render_dashboard() -> str:
    """The complete dashboard page as a string (served verbatim)."""
    return _PAGE % {"poll_ms": int(POLL_S * 1000)}
