//! Transparency: for correct programs, the wrapper must be
//! behavior-preserving — same results, same side effects, zero
//! violations. Checked over hand-written scenarios and property-tested
//! over generated ones.

use healers::ballista::ballista_targets;
use healers::core::{analyze, FunctionDecl, WrapperBuilder, WrapperConfig};
use healers::libc::{Libc, World};
use healers::simproc::SimValue;
use proptest::prelude::*;

fn decls() -> Vec<FunctionDecl> {
    let libc = Libc::standard();
    analyze(&libc, &ballista_targets())
}

#[test]
fn file_pipeline_is_transparent() {
    let libc = Libc::standard();
    let decls = decls();

    let run = |wrapped: bool| -> (Vec<i64>, Vec<u8>, u64) {
        let mut world = World::new();
        let mut wrapper = wrapped.then(|| {
            WrapperBuilder::new()
                .decls(decls.clone())
                .config(WrapperConfig::semi_auto())
                .build()
        });
        let mut call = |world: &mut World, name: &str, args: &[SimValue]| -> SimValue {
            match wrapper.as_mut() {
                Some(w) => w.call(&libc, world, name, args).expect("wrapped"),
                None => libc.call(world, name, args).expect("direct"),
            }
        };
        let mut observed = Vec::new();

        let path = SimValue::Ptr(world.alloc_cstr("/tmp/transparency"));
        let w_mode = SimValue::Ptr(world.alloc_cstr("w"));
        let stream = call(&mut world, "fopen", &[path, w_mode]);
        let line = SimValue::Ptr(world.alloc_cstr("forty-two\n"));
        observed.push(call(&mut world, "fputs", &[line, stream]).as_int());
        observed.push(call(&mut world, "fclose", &[stream]).as_int());

        let r_mode = SimValue::Ptr(world.alloc_cstr("r"));
        let stream = call(&mut world, "fopen", &[path, r_mode]);
        let buf = SimValue::Ptr(world.alloc_buf(32));
        observed.push(call(&mut world, "fgets", &[buf, SimValue::Int(32), stream]).as_ptr() as i64);
        observed.push(call(&mut world, "ftell", &[stream]).as_int());
        observed.push(call(&mut world, "fclose", &[stream]).as_int());

        let content = world.kernel.read_file("/tmp/transparency").unwrap();
        let violations = wrapper.map(|w| w.stats.violations).unwrap_or(0);
        (observed, content, violations)
    };

    let (direct_obs, direct_content, _) = run(false);
    let (wrapped_obs, wrapped_content, violations) = run(true);
    // Pointers differ between runs; compare shapes and file contents.
    assert_eq!(direct_obs.len(), wrapped_obs.len());
    assert_eq!(direct_obs[0], wrapped_obs[0]); // fputs result
    assert_eq!(direct_obs[1], wrapped_obs[1]); // fclose result
    assert_eq!(direct_obs[3], wrapped_obs[3]); // ftell result
    assert_eq!(direct_content, wrapped_content);
    assert_eq!(violations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any well-formed string and any copy within capacity: the wrapper
    /// must pass the call through with identical effect.
    #[test]
    fn strcpy_transparency(text in "[a-zA-Z0-9 ]{0,40}") {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["strcpy", "strlen", "malloc"]);
        let mut wrapper = WrapperBuilder::new().decls(decls).config(WrapperConfig::semi_auto()).build();
        let mut world = World::new();
        let dst = wrapper
            .call(&libc, &mut world, "malloc", &[SimValue::Int(64)])
            .unwrap();
        let src = SimValue::Ptr(world.alloc_cstr(&text));
        let r = wrapper
            .call(&libc, &mut world, "strcpy", &[dst, src])
            .unwrap();
        prop_assert_eq!(r, dst);
        let len = wrapper
            .call(&libc, &mut world, "strlen", &[dst])
            .unwrap();
        prop_assert_eq!(len.as_int() as usize, text.len());
        prop_assert_eq!(wrapper.stats.violations, 0);
    }

    /// Conversely: any source longer than the destination is refused
    /// before a single byte moves.
    #[test]
    fn strcpy_overflow_is_always_refused(extra in 1usize..64) {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["strcpy", "malloc"]);
        let mut wrapper = WrapperBuilder::new().decls(decls).config(WrapperConfig::full_auto()).build();
        let mut world = World::new();
        let dst = wrapper
            .call(&libc, &mut world, "malloc", &[SimValue::Int(16)])
            .unwrap();
        let text = "x".repeat(16 + extra);
        let src = SimValue::Ptr(world.alloc_cstr(&text));
        let r = wrapper
            .call(&libc, &mut world, "strcpy", &[dst, src])
            .unwrap();
        prop_assert_eq!(r, SimValue::NULL);
        prop_assert_eq!(wrapper.stats.violations, 1);
        // Destination untouched.
        prop_assert_eq!(world.proc.mem.read_u8(dst.as_ptr()).unwrap(), 0);
    }
}

/// A short argument vector reads its missing arguments as `Void`, the
/// way the library itself reads them: where the bare library returns,
/// the wrapper — postfix tracking included — returns the same value.
#[test]
fn short_argument_vectors_return_like_the_bare_library() {
    let libc = Libc::standard();
    let decls = analyze(&libc, &["malloc", "free", "realloc", "calloc"]);
    let calls: [(&str, &[SimValue]); 4] = [
        ("malloc", &[]),
        ("free", &[]),
        ("realloc", &[SimValue::NULL]),
        ("calloc", &[SimValue::Int(4)]),
    ];
    for (name, args) in calls {
        let direct = libc
            .call(&mut World::new(), name, args)
            .expect("the bare library returns");
        let mut wrapper = WrapperBuilder::new()
            .decls(decls.clone())
            .config(WrapperConfig::full_auto())
            .build();
        let wrapped = wrapper
            .call(&libc, &mut World::new(), name, args)
            .expect("the wrapper returns");
        assert_eq!(wrapped, direct, "{name}{args:?}");
    }
}
