//! Endpoint series register on an endpoint's first request, as a `span!`
//! site's phase does, so `/metrics` lists only endpoints the process has
//! served. The registry is process-global; this binary holds this one
//! test so no other request can register an endpoint behind its back.
//! Registration was lazy before the request roots resolved by name too:
//! the test guards that behaviour, it does not mark a change.

use graphio_graph::generators::fft_butterfly;
use graphio_service::{client, serve, ServiceConfig};
use std::time::Duration;

#[test]
fn metrics_list_only_served_endpoints() {
    let server = serve(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    })
    .expect("bind test server");
    let url = server.url();
    let scrape = || client::request("GET", &url, "/metrics", None).unwrap().body;
    let count = |body: &str, endpoint: &str| {
        let expo = graphio_obs::parse_metrics(body).expect("valid exposition");
        let family = "graphio_request_duration_microseconds_count";
        expo.value(family, &[("endpoint", endpoint)])
    };

    let before = scrape();
    assert_eq!(count(&before, "/analyze"), None, "{before}");
    assert!(!before.contains("\"/analyze\""), "{before}");

    let body = format!(
        "{{\"graph\":{},\"memories\":[2,4]}}",
        fft_butterfly(4).to_edge_list().to_json()
    );
    let r = client::request("POST", &url, "/analyze", Some(&body)).unwrap();
    assert_eq!(r.status, 200);
    // The request histogram records just after the response flushes.
    let mut after = String::new();
    for _ in 0..50 {
        after = scrape();
        if count(&after, "/analyze").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(count(&after, "/analyze"), Some(1.0), "{after}");
    assert_eq!(count(&after, "/batch"), None, "{after}");
    assert!(!after.contains("\"/batch\""), "{after}");
    server.shutdown();
}
