use bil_runtime::Label;
use bil_service::{Request, ServiceOptions, ShardedOptions, ShardedService};

#[test]
fn released_label_after_failed_epoch() {
    let options = ShardedOptions {
        shard: ServiceOptions {
            max_rounds: Some(3),
            ..ServiceOptions::default()
        },
        concurrent: false,
    };
    let mut svc = ShardedService::new(16, 1, 31, options).unwrap();
    // Epoch 0: a lone contender decides in 3 rounds (init, path, sync).
    let r0 = svc.step(&[Request::Acquire(Label(0))]).unwrap();
    assert_eq!(r0.granted.len(), 1, "epoch 0: {:?}", r0.shards);
    // Epoch 1: release label 0 plus 8 acquires -> the shard stalls.
    let mut batch = vec![Request::Release(Label(0))];
    batch.extend((1..9).map(|i| Request::Acquire(Label(i))));
    let r1 = svc.step(&batch).unwrap();
    assert!(
        r1.shards[0].is_err(),
        "epoch 1 should stall: {:?}",
        r1.shards[0]
    );
    // The release was applied inside the shard (names freed at begin).
    assert_eq!(svc.name_of(Label(0)), None);
    assert_eq!(svc.shard(0).held(), 0, "shard applied the release");
    // But can label 0 ever be re-acquired?
    let res = svc.submit(&[Request::Acquire(Label(0))]);
    assert!(
        res.is_ok(),
        "released label permanently blocked by stale route: {res:?}"
    );
}
