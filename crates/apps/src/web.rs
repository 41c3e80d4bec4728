//! The Rover Web browser proxy, headless, plus a synthetic Web.
//!
//! The paper's proxy sat between an unmodified browser (Mosaic,
//! Netscape) and the Web, giving it *click-ahead* — "users click ahead
//! of the arrived data by requesting multiple new documents before
//! earlier requests have been satisfied" — plus cached documents for
//! disconnected browsing and link prefetching when the channel is slow.
//! Here the browser is a scripted user session ([`run_session`]) and
//! the Web is a generated page graph ([`WebGen`]); the proxy logic over
//! the toolkit API is the real thing.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{Client, ClientRef, Guarantees, Promise, RoverError, RoverObject, ServerRef, Urn};
use rover_script::{format_list, parse_list, Value};
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{Priority, SessionId};

use crate::workload::TextGen;

/// Synthetic Web-site generator: a page graph with skewed sizes and
/// out-degrees.
pub struct WebGen {
    /// Number of pages (`p0` … `p{n-1}`).
    pub pages: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WebGen {
    /// Builds the page objects at `server`.
    pub fn populate(&self, server: &ServerRef) {
        let mut gen = TextGen::new(self.seed);
        for i in 0..self.pages {
            let deg = 4 + gen.index(9);
            let links: Vec<Value> = (0..deg)
                .map(|_| Value::str(format!("p{}", gen.index(self.pages))))
                .collect();
            let size = gen.page_size();
            let obj = RoverObject::new(Self::urn(i), "webpage")
                .with_field("title", &gen.title(3))
                .with_field("links", &format_list(&links))
                .with_field("body", &gen.text(size));
            server.borrow_mut().put_object(obj);
        }
    }

    /// URN of page `i`.
    pub fn urn(i: usize) -> Urn {
        Urn::new("web", &format!("p{i}")).expect("valid page urn")
    }
}

/// The browser proxy: click-ahead requests and link prefetching over
/// the toolkit cache.
pub struct BrowserProxy {
    /// Underlying toolkit client.
    pub client: ClientRef,
    /// Browsing session.
    pub session: SessionId,
    /// Prefetch linked pages once a page arrives.
    pub prefetch_links: bool,
    /// Maximum links prefetched per arrived page (the paper's proxy
    /// prefetches selectively — flooding a modem with every link makes
    /// things worse, not better).
    pub max_prefetch: usize,
    /// Only prefetch when the page's own fetch stalled at least this
    /// long — "if the delay is above a user-specified threshold,
    /// documents that are directly accessible from the one requested
    /// are prefetched" (paper §6.3). Zero = always.
    pub prefetch_threshold: SimDuration,
}

impl BrowserProxy {
    /// Creates a proxy. `prefetch_links` enables background prefetch of
    /// the first [`BrowserProxy::max_prefetch`] (default 3) outgoing
    /// links of each fetched page.
    pub fn new(client: &ClientRef, prefetch_links: bool) -> BrowserProxy {
        let session = Client::create_session(client, Guarantees::NONE, true);
        BrowserProxy {
            client: client.clone(),
            session,
            prefetch_links,
            max_prefetch: 3,
            prefetch_threshold: SimDuration::ZERO,
        }
    }

    /// Requests a page (a user click). Returns immediately with a
    /// promise: cached pages resolve at local speed, uncached ones are
    /// queued as QRPCs — the user keeps browsing either way.
    pub fn request(&self, sim: &mut Sim, page: &str) -> Result<Promise, RoverError> {
        let urn = Urn::new("web", page)?;
        let p = Client::import(&self.client, sim, &urn, self.session, Priority::FOREGROUND)?;
        if self.prefetch_links {
            let client = self.client.clone();
            let session = self.session;
            let max = self.max_prefetch;
            let threshold = self.prefetch_threshold;
            let requested_at = sim.now();
            p.on_ready(sim, move |sim, outcome| {
                if sim.now().since(requested_at) < threshold {
                    return; // The channel is fast; prefetching buys nothing.
                }
                if let Some(obj) = &outcome.object {
                    let urns = page_links(obj)
                        .into_iter()
                        .filter_map(|l| Urn::new("web", &l).ok())
                        .filter(|u| !Client::is_cached(&client, u))
                        .take(max)
                        .collect::<Vec<_>>();
                    Client::prefetch(&client, sim, &urns, session);
                }
            });
        }
        Ok(p)
    }
}

/// Extracts a page object's outgoing links.
pub fn page_links(obj: &RoverObject) -> Vec<String> {
    obj.field("links")
        .and_then(|l| parse_list(l).ok())
        .map(|vals| vals.iter().map(|v| v.as_str().into_owned()).collect())
        .unwrap_or_default()
}

/// User model for a browsing session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrowseMode {
    /// The user waits for each page before thinking about the next
    /// click (a conventional blocking browser).
    Blocking,
    /// The user clicks after each think time even if earlier pages have
    /// not arrived (Rover's click-ahead).
    ClickAhead,
}

/// Results of a scripted browsing session.
#[derive(Debug, Default)]
pub struct BrowseStats {
    /// Per-click stall: click instant → page available, in ms.
    pub stalls_ms: Vec<f64>,
    /// Clicks issued.
    pub clicks: usize,
    /// Session finished (all requested pages arrived).
    pub finished_at: Option<SimTime>,
}

/// Drives a scripted user over the proxy: `clicks` page loads starting
/// at `start_page`, pausing `think` between interactions, following a
/// random outgoing link of the most recently *arrived* page. Returns a
/// shared stats cell filled in as the simulation runs.
pub fn run_session(
    proxy: Rc<BrowserProxy>,
    sim: &mut Sim,
    start_page: &str,
    clicks: usize,
    think: SimDuration,
    mode: BrowseMode,
    seed: u64,
) -> Rc<RefCell<BrowseStats>> {
    let stats = Rc::new(RefCell::new(BrowseStats::default()));
    let gen = Rc::new(RefCell::new(TextGen::new(seed)));
    // The links of the most recently arrived page; clicks pick from it.
    let current_links = Rc::new(RefCell::new(vec![start_page.to_owned()]));
    let outstanding = Rc::new(RefCell::new(0usize));

    struct Ctx {
        proxy: Rc<BrowserProxy>,
        stats: Rc<RefCell<BrowseStats>>,
        gen: Rc<RefCell<TextGen>>,
        links: Rc<RefCell<Vec<String>>>,
        outstanding: Rc<RefCell<usize>>,
        think: SimDuration,
        mode: BrowseMode,
        total: usize,
    }

    fn click(ctx: Rc<Ctx>, sim: &mut Sim) {
        let page = {
            let links = ctx.links.borrow();
            let mut gen = ctx.gen.borrow_mut();
            // Users mostly follow the first few links on a page (which
            // is also what the proxy prefetches).
            let idx = if gen.chance(0.8) {
                gen.index(links.len().min(4))
            } else {
                gen.index(links.len())
            };
            links[idx].clone()
        };
        {
            let mut st = ctx.stats.borrow_mut();
            st.clicks += 1;
        }
        *ctx.outstanding.borrow_mut() += 1;
        let clicked_at = sim.now();
        let p = match ctx.proxy.request(sim, &page) {
            Ok(p) => p,
            Err(_) => return,
        };
        let ctx2 = ctx.clone();
        p.on_ready(sim, move |sim, outcome| {
            let stall = sim.now().since(clicked_at);
            {
                let mut st = ctx2.stats.borrow_mut();
                st.stalls_ms.push(stall.as_millis_f64());
            }
            *ctx2.outstanding.borrow_mut() -= 1;
            if let Some(obj) = &outcome.object {
                let links = page_links(obj);
                if !links.is_empty() {
                    *ctx2.links.borrow_mut() = links;
                }
            }
            let st = ctx2.stats.borrow();
            let done_clicking = st.clicks >= ctx2.total;
            let all_arrived = st.stalls_ms.len() >= ctx2.total;
            drop(st);
            if done_clicking {
                if all_arrived {
                    ctx2.stats.borrow_mut().finished_at = Some(sim.now());
                }
                return;
            }
            // A blocking user only thinks about the next click once the
            // page has rendered.
            if ctx2.mode == BrowseMode::Blocking {
                let ctx3 = ctx2.clone();
                sim.schedule_after(ctx3.think, move |sim| click(ctx3.clone(), sim));
            }
        });

        // A click-ahead user schedules the next click on think time
        // alone, regardless of arrivals.
        if ctx.mode == BrowseMode::ClickAhead {
            let already_done = ctx.stats.borrow().clicks >= ctx.total;
            if !already_done {
                let ctx3 = ctx.clone();
                sim.schedule_after(ctx.think, move |sim| click(ctx3.clone(), sim));
            }
        }
    }

    let ctx = Rc::new(Ctx {
        proxy,
        stats: stats.clone(),
        gen,
        links: current_links,
        outstanding,
        think,
        mode,
        total: clicks,
    });
    sim.schedule_after(SimDuration::ZERO, move |sim| click(ctx, sim));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rover_core::{ServerConfig, World};
    use rover_wire::HostId;

    #[test]
    fn webgen_pages_have_valid_links_and_sizes() {
        let server = World::new(0).server(ServerConfig::workstation(HostId(9)));
        WebGen { pages: 25, seed: 3 }.populate(&server);
        assert_eq!(server.borrow().object_count(), 25);
        for i in 0..25 {
            let sv = server.borrow();
            let page = sv.get_object(&WebGen::urn(i)).unwrap();
            let links = page_links(page);
            assert!((4..=12).contains(&links.len()), "degree {}", links.len());
            for l in &links {
                let n: usize = l[1..].parse().expect("pN link");
                assert!(n < 25);
            }
            let body = page.field("body").unwrap();
            assert!((2_000..120_000).contains(&body.len()));
        }
    }

    #[test]
    fn webgen_is_deterministic() {
        let mut w = World::new(0);
        let s1 = w.server(ServerConfig::workstation(HostId(8)));
        let s2 = w.server(ServerConfig::workstation(HostId(8)));
        WebGen { pages: 10, seed: 5 }.populate(&s1);
        WebGen { pages: 10, seed: 5 }.populate(&s2);
        for i in 0..10 {
            assert_eq!(
                s1.borrow().get_object(&WebGen::urn(i)),
                s2.borrow().get_object(&WebGen::urn(i))
            );
        }
    }

    #[test]
    fn page_links_tolerates_missing_field() {
        let obj = RoverObject::new(Urn::new("web", "x").unwrap(), "webpage");
        assert!(page_links(&obj).is_empty());
    }
}
